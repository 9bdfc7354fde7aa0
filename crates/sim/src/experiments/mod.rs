//! Experiment drivers regenerating the paper's evaluation.
//!
//! Each submodule corresponds to a group of figures; the `pimsim-bench`
//! crate's `regen` binary calls these drivers and prints the paper-shaped
//! tables.
//!
//! | Driver | Paper artifact |
//! |--------|----------------|
//! | [`characterization`] | Figure 4 (and Table I echo) |
//! | [`interference`] | Figure 5 |
//! | [`competitive`] | Figures 6, 8, 10, 13, 14b |
//! | [`collaborative`] | Figures 11 and 14a (LLM half), the FFT scenario |

pub mod characterization;
pub mod collaborative;
pub mod competitive;
pub mod interference;
pub mod sweep;

/// Default work-scale for fast full sweeps. At this scale a single
/// co-execution simulates in well under a second, so the 180-combination
/// sweeps finish in minutes.
pub const DEFAULT_SCALE: f64 = 0.05;

/// Default per-simulation GPU-cycle budget. Runs that exceed it are
/// reported as starvation (speedup ≈ 0), mirroring the paper's fairness
/// index of 0 for MEM-First/PIM-First/G&I pathologies.
pub const DEFAULT_BUDGET: u64 = 8_000_000;
