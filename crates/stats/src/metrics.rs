//! System-level multiprogram metrics (Section III-C of the paper).
//!
//! Both metrics are defined over per-application *speedups*: the ratio of an
//! application's standalone execution time to its execution time under
//! contention.

/// Fairness Index (Eyerman & Eeckhout):
/// `min(s_a / s_b, s_b / s_a)`.
///
/// 1.0 means both applications slow down equally; 0.0 means one of them is
/// fully starved. By convention, if both speedups are zero the index is 1.0
/// (equal — if degenerate — treatment), and if exactly one is zero it is 0.0.
pub fn fairness_index(speedup_a: f64, speedup_b: f64) -> f64 {
    assert!(
        speedup_a >= 0.0 && speedup_b >= 0.0,
        "speedups must be nonnegative"
    );
    match (speedup_a == 0.0, speedup_b == 0.0) {
        (true, true) => 1.0,
        (true, false) | (false, true) => 0.0,
        (false, false) => (speedup_a / speedup_b).min(speedup_b / speedup_a),
    }
}

/// System Throughput: the sum of per-application speedups, a direct measure
/// of the rate at which the system services kernels.
pub fn system_throughput(speedup_a: f64, speedup_b: f64) -> f64 {
    speedup_a + speedup_b
}

/// Per-application speedups of one co-execution run, plus the derived
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoexecMetrics {
    /// Speedup of the regular GPU (MEM) kernel.
    pub mem_speedup: f64,
    /// Speedup of the PIM kernel.
    pub pim_speedup: f64,
}

impl CoexecMetrics {
    /// Builds metrics from standalone and contended execution times.
    ///
    /// # Panics
    ///
    /// Panics if any execution time is zero.
    pub fn from_times(
        mem_alone: u64,
        mem_contended: u64,
        pim_alone: u64,
        pim_contended: u64,
    ) -> Self {
        assert!(
            mem_alone > 0 && mem_contended > 0 && pim_alone > 0 && pim_contended > 0,
            "execution times must be nonzero"
        );
        CoexecMetrics {
            mem_speedup: mem_alone as f64 / mem_contended as f64,
            pim_speedup: pim_alone as f64 / pim_contended as f64,
        }
    }

    /// Fairness index of this run.
    pub fn fairness_index(&self) -> f64 {
        fairness_index(self.mem_speedup, self.pim_speedup)
    }

    /// System throughput of this run.
    pub fn system_throughput(&self) -> f64 {
        system_throughput(self.mem_speedup, self.pim_speedup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_is_symmetric_and_bounded() {
        let f = fairness_index(0.25, 0.75);
        assert_eq!(f, fairness_index(0.75, 0.25));
        assert!((f - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(fairness_index(0.5, 0.5), 1.0);
    }

    #[test]
    fn fairness_starvation_is_zero() {
        assert_eq!(fairness_index(0.0, 0.9), 0.0);
        assert_eq!(fairness_index(0.9, 0.0), 0.0);
        assert_eq!(fairness_index(0.0, 0.0), 1.0);
    }

    #[test]
    fn throughput_is_sum() {
        assert_eq!(system_throughput(0.4, 0.7), 1.1);
    }

    #[test]
    fn coexec_metrics_from_times() {
        // MEM: alone 100, contended 200 -> 0.5; PIM: alone 80, contended 100 -> 0.8.
        let m = CoexecMetrics::from_times(100, 200, 80, 100);
        assert!((m.mem_speedup - 0.5).abs() < 1e-12);
        assert!((m.pim_speedup - 0.8).abs() < 1e-12);
        assert!((m.fairness_index() - 0.625).abs() < 1e-12);
        assert!((m.system_throughput() - 1.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "execution times must be nonzero")]
    fn coexec_metrics_rejects_zero_time() {
        let _ = CoexecMetrics::from_times(0, 1, 1, 1);
    }
}
