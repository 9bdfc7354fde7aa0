//! The 20 Rodinia GPU benchmarks of Table II, as calibrated synthetic
//! kernel models.
//!
//! Calibration targets the qualitative characterization of Figure 4:
//!
//! * G4 (cfd) has the highest *interconnect* request rate;
//! * G15 (nn) has the highest *DRAM* request rate (streaming, no reuse);
//! * G6 (gaussian) has the highest bank-level parallelism and poor row
//!   locality (the paper reports an average RBHR of 32%);
//! * G17 (pathfinder) has the highest row-buffer hit rate;
//! * G10 (huffman) is compute-intensive (Figure 13 uses it as the
//!   low-memory-intensity extreme);
//! * G19 (srad_v2) produces heavy interconnect traffic that the L2
//!   filters well (the "common case of moderate memory traffic").

use pimsim_gpu::{GpuKernelParams, SyntheticGpuKernel};

use crate::valid_scale;

/// Identifier of a Rodinia benchmark (G1..G20 in the paper's tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuBenchmark(pub u8);

impl GpuBenchmark {
    /// All twenty benchmarks, G1..G20.
    pub fn all() -> Vec<GpuBenchmark> {
        (1..=20).map(GpuBenchmark).collect()
    }

    /// The benchmark's name per Table II.
    pub fn name(self) -> &'static str {
        match self.0 {
            1 => "b+tree",
            2 => "backprop",
            3 => "bfs",
            4 => "cfd",
            5 => "dwt2d",
            6 => "gaussian",
            7 => "heartwall",
            8 => "hotspot",
            9 => "hotspot3D",
            10 => "huffman",
            11 => "kmeans",
            12 => "lavaMD",
            13 => "lud",
            14 => "mummergpu",
            15 => "nn",
            16 => "nw",
            17 => "pathfinder",
            18 => "srad_v1",
            19 => "srad_v2",
            20 => "streamcluster",
            _ => panic!("GpuBenchmark index out of range: {}", self.0),
        }
    }

    /// The paper's label, `G1`..`G20`.
    pub fn label(self) -> String {
        format!("G{}", self.0)
    }
}

impl std::fmt::Display for GpuBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.label(), self.name())
    }
}

/// Calibrated parameters for `bench`, with work scaled by `scale`
/// (1.0 = the default fast-sweep size).
///
/// # Panics
///
/// Panics if `bench` is outside `G1..G20` or `scale` is not finite and positive.
pub fn gpu_kernel_params(bench: GpuBenchmark, scale: f64) -> GpuKernelParams {
    assert!(valid_scale(scale), "scale must be finite and positive");
    // (requests, interval, read_frac, footprint MiB, row_loc, l2_reuse, streams)
    // Issue intervals fold in the L1 cache's filtering and the kernels'
    // instruction mix (we model neither explicitly): a GPU SM injects into
    // the interconnect far below one request per cycle, which is what lets
    // an 8-SM PIM kernel rival an 80-SM GPU kernel's interconnect arrival
    // rate (Figure 4a: PIM is only 17.8% below GPU-80 on average).
    let (reqs, interval, read, foot_mib, row, l2, streams) = match bench.0 {
        1 => (30_000, 10, 0.90, 16, 0.30, 0.50, 4), // b+tree: pointer chasing
        2 => (40_000, 8, 0.60, 24, 0.85, 0.30, 4),  // backprop: streaming
        3 => (35_000, 8, 0.85, 32, 0.20, 0.40, 8),  // bfs: irregular
        4 => (60_000, 2, 0.75, 24, 0.70, 0.60, 8),  // cfd: peak icnt rate
        5 => (30_000, 10, 0.65, 16, 0.80, 0.50, 4), // dwt2d
        6 => (45_000, 5, 0.70, 48, 0.22, 0.30, 16), // gaussian: peak BLP, poor RBHR
        7 => (15_000, 30, 0.80, 8, 0.60, 0.60, 2),  // heartwall: compute-heavy
        8 => (25_000, 15, 0.65, 16, 0.80, 0.70, 4), // hotspot
        9 => (35_000, 10, 0.70, 24, 0.70, 0.50, 6), // hotspot3D
        10 => (8_000, 100, 0.80, 4, 0.50, 0.50, 2), // huffman: compute-intensive
        11 => (55_000, 5, 0.85, 48, 0.60, 0.15, 8), // kmeans: heavy DRAM traffic
        12 => (12_000, 40, 0.75, 8, 0.60, 0.70, 2), // lavaMD: compute-heavy
        13 => (25_000, 15, 0.70, 16, 0.70, 0.60, 4), // lud
        14 => (35_000, 10, 0.90, 32, 0.30, 0.35, 6), // mummergpu: irregular
        15 => (60_000, 3, 0.95, 64, 0.80, 0.02, 8), // nn: peak DRAM rate, no reuse
        16 => (25_000, 12, 0.65, 16, 0.60, 0.50, 4), // nw
        17 => (50_000, 5, 0.75, 24, 0.97, 0.30, 2), // pathfinder: peak RBHR
        18 => (30_000, 10, 0.70, 16, 0.80, 0.50, 4), // srad_v1
        19 => (60_000, 3, 0.65, 32, 0.85, 0.75, 4), // srad_v2: icnt-heavy, L2-filtered
        20 => (35_000, 8, 0.80, 24, 0.75, 0.40, 4), // streamcluster
        _ => panic!("GpuBenchmark index out of range: {}", bench.0),
    };
    GpuKernelParams {
        name: bench.name().to_owned(),
        total_requests: ((reqs as f64) * scale).max(1.0) as u64,
        issue_interval: interval,
        read_fraction: read,
        footprint_bytes: foot_mib * 1024 * 1024,
        row_locality: row,
        l2_reuse: l2,
        streams_per_slot: streams,
        seed: 0xC0FFEE ^ u64::from(bench.0),
    }
}

/// Builds the kernel model for `bench` on `num_sms` SMs.
pub fn gpu_kernel(bench: GpuBenchmark, num_sms: usize, scale: f64) -> SyntheticGpuKernel {
    SyntheticGpuKernel::new(gpu_kernel_params(bench, scale), num_sms)
}

/// The full suite, in order G1..G20.
pub fn rodinia_suite(num_sms: usize, scale: f64) -> Vec<SyntheticGpuKernel> {
    GpuBenchmark::all()
        .into_iter()
        .map(|b| gpu_kernel(b, num_sms, scale))
        .collect()
}

/// The paper's "most memory intensive" picks (Figure 5): cfd (icnt rate),
/// gaussian (BLP), nn (DRAM rate), pathfinder (RBHR).
pub fn memory_intensive_picks() -> [GpuBenchmark; 4] {
    [
        GpuBenchmark(4),
        GpuBenchmark(6),
        GpuBenchmark(15),
        GpuBenchmark(17),
    ]
}

/// Figure 13's kernel slice: compute-intensive G10 plus memory-intensive
/// G6, G11, G17, G19.
pub fn figure13_picks() -> [GpuBenchmark; 5] {
    [
        GpuBenchmark(10),
        GpuBenchmark(6),
        GpuBenchmark(11),
        GpuBenchmark(17),
        GpuBenchmark(19),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_gpu::KernelModel;

    #[test]
    fn suite_has_twenty_distinct_kernels() {
        let suite = rodinia_suite(8, 0.1);
        assert_eq!(suite.len(), 20);
        let mut names: Vec<&str> = suite.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "benchmark names must be unique");
    }

    #[test]
    fn all_parameters_validate() {
        for b in GpuBenchmark::all() {
            gpu_kernel_params(b, 1.0).validate();
            gpu_kernel_params(b, 0.05).validate();
        }
    }

    #[test]
    fn labels_match_paper_numbering() {
        assert_eq!(GpuBenchmark(4).label(), "G4");
        assert_eq!(GpuBenchmark(4).name(), "cfd");
        assert_eq!(GpuBenchmark(17).name(), "pathfinder");
        assert_eq!(GpuBenchmark(10).to_string(), "G10 (huffman)");
    }

    #[test]
    fn calibration_extremes_hold() {
        // G10 must be the least intensive (largest interval); G4/G15/G19
        // the most intensive (interval 1).
        let intervals: Vec<u64> = GpuBenchmark::all()
            .into_iter()
            .map(|b| gpu_kernel_params(b, 1.0).issue_interval)
            .collect();
        let g10 = intervals[9];
        assert_eq!(g10, *intervals.iter().max().unwrap());
        assert_eq!(gpu_kernel_params(GpuBenchmark(4), 1.0).issue_interval, 2);
        // G17 has the highest row locality; G15 the lowest L2 reuse.
        let rows: Vec<f64> = GpuBenchmark::all()
            .into_iter()
            .map(|b| gpu_kernel_params(b, 1.0).row_locality)
            .collect();
        assert_eq!(rows[16], rows.iter().cloned().fold(0.0, f64::max));
        let l2s: Vec<f64> = GpuBenchmark::all()
            .into_iter()
            .map(|b| gpu_kernel_params(b, 1.0).l2_reuse)
            .collect();
        assert_eq!(l2s[14], l2s.iter().cloned().fold(1.0, f64::min));
        // G6 has the most streams (BLP).
        let streams: Vec<usize> = GpuBenchmark::all()
            .into_iter()
            .map(|b| gpu_kernel_params(b, 1.0).streams_per_slot)
            .collect();
        assert_eq!(streams[5], *streams.iter().max().unwrap());
    }

    #[test]
    fn scale_grows_request_counts() {
        let small = gpu_kernel_params(GpuBenchmark(1), 0.5).total_requests;
        let big = gpu_kernel_params(GpuBenchmark(1), 2.0).total_requests;
        assert_eq!(big, small * 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_benchmark_panics() {
        let _ = gpu_kernel_params(GpuBenchmark(21), 1.0);
    }
}
