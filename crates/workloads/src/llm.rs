//! The collaborative scenario: a GPT-3-6.7B-like decoder layer
//! (Section III-B, "Collaborative").
//!
//! The paper overlaps QKV generation (three GEMMs on the GPU SMs) with
//! multi-head attention (GEMV + softmax on PIM), following AttAcc/NeuPIMs.
//! Model shape: batch 128, sequence length 1024, embedding 4096, with the
//! KV cache loaded on demand.
//!
//! The scenario's defining property (Section VI-B): **QKV generation is
//! the longer-running kernel, but the PIM kernel produces far more
//! traffic** — so naive policies let MHA's PIM stream throttle the GEMMs
//! that the end-to-end latency actually depends on.

use pimsim_gpu::PimKernelModel;
use pimsim_gpu::{GpuKernelParams, PimKernelSpec, PimPhase, SyntheticGpuKernel};

use crate::valid_scale;

/// The two halves of the collaborative scenario.
#[derive(Debug, Clone)]
pub struct LlmScenario {
    /// QKV generation: three chained GEMMs on the GPU SMs (modeled as one
    /// request stream with GEMM-like locality).
    pub qkv: SyntheticGpuKernel,
    /// Multi-head attention: GEMV + softmax on the PIM FUs.
    pub mha: PimKernelModel,
}

/// GEMM-like parameters for QKV generation on `num_sms` SMs.
///
/// GEMMs are blocked: high L2 reuse (tiles are re-touched), long
/// sequential runs (row-major tile loads), moderate per-SM pacing (the
/// math pipeline is busy between loads).
pub fn qkv_params(scale: f64) -> GpuKernelParams {
    assert!(valid_scale(scale), "scale must be finite and positive");
    GpuKernelParams {
        name: "QKV-GEMM".into(),
        // Three GEMMs' worth of traffic; tuned so QKV alone runs longer
        // than MHA alone (the paper's premise) while the L2 filters most
        // of it (GEMM tiles reside in cache).
        total_requests: ((180_000_f64) * scale).max(1.0) as u64,
        issue_interval: 3,
        read_fraction: 0.85,
        footprint_bytes: 96 * 1024 * 1024,
        row_locality: 0.9,
        l2_reuse: 0.85,
        streams_per_slot: 4,
        seed: 0x11f,
    }
}

/// GEMV/softmax spec for MHA on `channels` channels.
///
/// GEMV over the on-demand KV cache: streaming loads with accumulating
/// computes; the softmax adds a short store phase. Less total *time* than
/// QKV, but a much higher injection rate (every op is a PIM store, nothing
/// is cached).
pub fn mha_spec(channels: usize, scale: f64) -> PimKernelSpec {
    assert!(valid_scale(scale), "scale must be finite and positive");
    use PimPhase::{Compute, Load, Store};
    PimKernelSpec {
        name: "MHA-GEMV".into(),
        pattern: vec![Load, Compute, Compute, Compute, Store],
        ops_per_block: 16,
        blocks_per_channel: ((64_f64) * scale).max(1.0) as u64,
        channels,
        rf_entries_per_bank: 8,
        max_row: 1 << 13,
    }
}

/// Builds the collaborative scenario: QKV on `gpu_sms` SMs, MHA on
/// `channels / warps_per_sm` SMs.
pub fn llm_scenario(
    gpu_sms: usize,
    channels: usize,
    warps_per_sm: usize,
    max_outstanding: u32,
    scale: f64,
) -> LlmScenario {
    LlmScenario {
        qkv: SyntheticGpuKernel::new(qkv_params(scale), gpu_sms),
        mha: PimKernelModel::new(
            mha_spec(channels, scale),
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
    fn scenario_builds_with_paper_shape() {
        let s = llm_scenario(72, 32, 4, 256, 0.1);
        assert_eq!(s.qkv.num_slots(), 72);
        assert_eq!(s.mha.num_slots(), 8);
    }

    #[test]
    fn qkv_is_cache_friendly_mha_is_not_cacheable() {
        let p = qkv_params(1.0);
        assert!(p.l2_reuse > 0.5, "GEMMs tile well in the L2");
        // MHA is PIM: bypasses caches by construction.
        let m = mha_spec(32, 1.0);
        assert!(m.total_ops() > 0);
    }

    #[test]
    fn specs_validate() {
        qkv_params(1.0).validate();
        mha_spec(32, 1.0).validate();
        qkv_params(0.05).validate();
    }
}
