//! The nine PIM benchmarks of Table III, as block-structured PIM kernel
//! specs (borrowed by the paper from OrderLight's PIM-amenable suite).
//!
//! Each kernel is characterized by its repeating block phase pattern (how
//! many rows a logical chunk touches and in what roles) and its block
//! length, which determines its row-buffer hit rate: a block of `n` ops
//! hits on `n-1` of them.

use pimsim_gpu::{PimKernelModel, PimKernelSpec, PimPhase};

use crate::valid_scale;

/// Identifier of a PIM benchmark (P1..P9 in Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PimBenchmark(pub u8);

impl PimBenchmark {
    /// All nine benchmarks, P1..P9.
    pub fn all() -> Vec<PimBenchmark> {
        (1..=9).map(PimBenchmark).collect()
    }

    /// The benchmark's name per Table III.
    pub fn name(self) -> &'static str {
        match self.0 {
            1 => "Stream Add",
            2 => "Stream Copy",
            3 => "Stream Daxpy",
            4 => "Stream Scale",
            5 => "BN Fwd",
            6 => "BN Bwd",
            7 => "Fully connected",
            8 => "KMeans",
            9 => "GRIM",
            _ => panic!("PimBenchmark index out of range: {}", self.0),
        }
    }

    /// The paper's label, `P1`..`P9`.
    pub fn label(self) -> String {
        format!("P{}", self.0)
    }
}

impl std::fmt::Display for PimBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.label(), self.name())
    }
}

/// Builds the spec for `bench` on `channels` channels, with work scaled by
/// `scale` (1.0 = the default fast-sweep size).
///
/// # Panics
///
/// Panics if `bench` is outside `P1..P9` or `scale` is not finite and positive.
pub fn pim_kernel_spec(bench: PimBenchmark, channels: usize, scale: f64) -> PimKernelSpec {
    assert!(valid_scale(scale), "scale must be finite and positive");
    use PimPhase::{Compute, Load, Store};
    // (pattern, ops_per_block, base blocks/channel)
    // Block lengths reflect each kernel's data layout: vectors are laid
    // out in row-buffer-sized chunks (Section II-B), and co-locating the
    // operand chunks of one computation in the same row yields blocks of
    // several RF-loads' worth of consecutive same-row operations. Longer
    // blocks amortize the precharge+activate boundary and raise the row
    // buffer hit rate ((n-1)/n for an n-op block), reproducing the high
    // PIM locality of Figure 4d (Stream Scale: 99.6%).
    let (pattern, ops_per_block, base_blocks): (Vec<PimPhase>, u32, u64) = match bench.0 {
        // STREAM kernels: one op per element, long regular blocks.
        1 => (vec![Load, Compute, Store], 24, 120), // add: c = a + b
        2 => (vec![Load, Store], 16, 210),          // copy: c = a
        3 => (vec![Load, Compute, Compute, Store], 32, 120), // daxpy: c = a*x + y
        4 => (vec![Load, Store], 64, 120),          // scale: row-long blocks
        // Batch norm: a few computes per element.
        5 => (vec![Load, Compute, Compute, Store], 32, 70),
        6 => (vec![Load, Compute, Compute, Compute, Store], 32, 60),
        // Fully connected: compute-dominated GEMV accumulation.
        7 => (
            vec![
                Load, Compute, Compute, Compute, Compute, Compute, Compute, Store,
            ],
            64,
            30,
        ),
        // KMeans: distance computes, occasional assignment store.
        8 => (vec![Load, Compute, Compute, Compute, Store], 40, 50),
        // GRIM: bitvector filtering, wide computes.
        9 => (vec![Load, Compute, Store], 32, 60),
        _ => panic!("PimBenchmark index out of range: {}", bench.0),
    };
    PimKernelSpec {
        name: bench.name().to_owned(),
        pattern,
        ops_per_block,
        blocks_per_channel: ((base_blocks as f64) * scale).max(1.0) as u64,
        channels,
        rf_entries_per_bank: 8,
        max_row: 1 << 13,
    }
}

/// Builds the kernel model for `bench`: 8 SMs x 4 warps = one warp per
/// channel (the paper's mapping), with a per-warp outstanding cap of
/// `max_outstanding`.
pub fn pim_kernel(
    bench: PimBenchmark,
    channels: usize,
    warps_per_sm: usize,
    max_outstanding: u32,
    scale: f64,
) -> PimKernelModel {
    let spec = pim_kernel_spec(bench, channels, scale);
    let num_sms = channels / warps_per_sm;
    PimKernelModel::new(spec, num_sms, warps_per_sm, max_outstanding)
}

/// STREAM-Triad (`a = b + s*c`), which the paper *excludes* from its
/// suite because it has the same access pattern as STREAM-Add (Section
/// III-B, footnote 2). Provided as an extension so the exclusion
/// rationale is checkable: its block structure matches P1's with one
/// extra compute phase.
pub fn stream_triad_spec(channels: usize, scale: f64) -> PimKernelSpec {
    assert!(valid_scale(scale), "scale must be finite and positive");
    use PimPhase::{Compute, Load, Store};
    PimKernelSpec {
        name: "Stream Triad".to_owned(),
        pattern: vec![Load, Compute, Store],
        ops_per_block: 24,
        blocks_per_channel: ((120_f64) * scale).max(1.0) as u64,
        channels,
        rf_entries_per_bank: 8,
        max_row: 1 << 13,
    }
}

/// The full suite, in order P1..P9.
pub fn pim_suite(
    channels: usize,
    warps_per_sm: usize,
    max_outstanding: u32,
    scale: f64,
) -> Vec<PimKernelModel> {
    PimBenchmark::all()
        .into_iter()
        .map(|b| pim_kernel(b, channels, warps_per_sm, max_outstanding, scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_gpu::KernelModel;

    #[test]
    fn suite_has_nine_kernels() {
        let suite = pim_suite(32, 4, 32, 0.1);
        assert_eq!(suite.len(), 9);
    }

    #[test]
    fn all_specs_validate() {
        for b in PimBenchmark::all() {
            pim_kernel_spec(b, 32, 1.0).validate();
        }
    }

    #[test]
    fn scale_kernel_has_row_long_blocks() {
        // Stream Scale's near-perfect RBHR (99.6% in Figure 4d) comes from
        // row-long blocks: 64 ops -> 63/64 hits.
        let s = pim_kernel_spec(PimBenchmark(4), 32, 1.0);
        assert_eq!(s.ops_per_block, 64);
    }

    #[test]
    fn patterns_start_with_load() {
        for b in PimBenchmark::all() {
            let s = pim_kernel_spec(b, 32, 1.0);
            assert_eq!(s.pattern[0], PimPhase::Load, "{}", b);
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PimBenchmark(1).label(), "P1");
        assert_eq!(PimBenchmark(1).name(), "Stream Add");
        assert_eq!(PimBenchmark(9).name(), "GRIM");
        assert_eq!(PimBenchmark(4).to_string(), "P4 (Stream Scale)");
    }

    #[test]
    fn model_mapping_matches_paper_shape() {
        // 32 channels / 4 warps per SM = 8 SMs.
        let k = pim_kernel(PimBenchmark(1), 32, 4, 32, 0.1);
        assert_eq!(k.num_slots(), 8);
    }

    #[test]
    fn total_ops_scale_linearly() {
        let small = pim_kernel_spec(PimBenchmark(2), 32, 1.0).total_ops();
        let big = pim_kernel_spec(PimBenchmark(2), 32, 2.0).total_ops();
        assert_eq!(big, small * 2);
    }

    #[test]
    fn triad_matches_adds_access_pattern() {
        // The paper excludes Triad because it duplicates Add's pattern;
        // structurally they must agree on everything the memory system
        // sees (phases per chunk, block length, total work shape).
        let add = pim_kernel_spec(PimBenchmark(1), 32, 1.0);
        let triad = stream_triad_spec(32, 1.0);
        assert_eq!(add.pattern, triad.pattern);
        assert_eq!(add.ops_per_block, triad.ops_per_block);
        assert_eq!(add.blocks_per_channel, triad.blocks_per_channel);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_benchmark_panics() {
        let _ = pim_kernel_spec(PimBenchmark(0), 32, 1.0);
    }
}
