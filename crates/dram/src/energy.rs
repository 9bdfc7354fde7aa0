//! DRAM energy accounting.
//!
//! An extension beyond the paper (its evaluation is performance-only, but
//! PIM's headline motivation is data-movement energy): per-command energy
//! plus background power, computed from a channel's command counters.
//!
//! Default coefficients are HBM2-class ballpark figures (per 32 B access
//! at the device level), good for *relative* comparisons — e.g. PIM ops
//! avoid the I/O energy of moving data across the bus.

use pimsim_types::Cycle;

use crate::channel::ChannelStats;

/// Per-command energies (picojoules) and background power.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyConfig {
    /// Activate + implicit restore energy per bank, pJ.
    pub e_act: f64,
    /// Precharge energy per bank, pJ.
    pub e_pre: f64,
    /// Column read energy (array access), pJ.
    pub e_rd_array: f64,
    /// Column write energy (array access), pJ.
    pub e_wr_array: f64,
    /// I/O energy of moving one 32 B word across the bus, pJ. MEM reads
    /// and writes pay it; PIM ops do not (data stays at the bank).
    pub e_io: f64,
    /// PIM functional-unit compute energy per op, pJ.
    pub e_pim_fu: f64,
    /// All-bank refresh energy, pJ.
    pub e_ref: f64,
    /// Background power per channel, pJ per DRAM cycle.
    pub p_background: f64,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            e_act: 900.0,
            e_pre: 600.0,
            e_rd_array: 150.0,
            e_wr_array: 160.0,
            e_io: 250.0,
            e_pim_fu: 60.0,
            e_ref: 25_000.0,
            p_background: 45.0,
        }
    }
}

/// Energy breakdown for one channel over a run, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Row activates + precharges.
    pub row: f64,
    /// MEM column array accesses.
    pub mem_array: f64,
    /// MEM bus I/O.
    pub io: f64,
    /// PIM column array accesses + FU compute.
    pub pim: f64,
    /// Refresh.
    pub refresh: f64,
    /// Background.
    pub background: f64,
}

impl EnergyBreakdown {
    /// Total energy, pJ.
    pub fn total(&self) -> f64 {
        self.row + self.mem_array + self.io + self.pim + self.refresh + self.background
    }

    /// Merges another breakdown (cross-channel aggregation).
    pub fn merge(&mut self, o: &EnergyBreakdown) {
        self.row += o.row;
        self.mem_array += o.mem_array;
        self.io += o.io;
        self.pim += o.pim;
        self.refresh += o.refresh;
        self.background += o.background;
    }
}

/// Computes the energy of `stats` over `cycles` DRAM cycles for a channel
/// with `banks` banks.
///
/// A lock-step PIM op performs an array access and an FU operation on
/// *every* bank (16 DRAM words of useful work per op), so its energy
/// scales with the bank count; activates and precharges are already
/// counted per bank in [`ChannelStats`].
pub fn channel_energy(
    cfg: &EnergyConfig,
    stats: &ChannelStats,
    cycles: Cycle,
    banks: u32,
) -> EnergyBreakdown {
    EnergyBreakdown {
        row: stats.acts as f64 * cfg.e_act + stats.pres as f64 * cfg.e_pre,
        mem_array: stats.reads as f64 * cfg.e_rd_array + stats.writes as f64 * cfg.e_wr_array,
        io: (stats.reads + stats.writes) as f64 * cfg.e_io,
        // Every bank's array + FU participate; nothing crosses the bus.
        pim: stats.pim_ops as f64 * f64::from(banks) * (cfg.e_rd_array + cfg.e_pim_fu),
        refresh: stats.refreshes as f64 * cfg.e_ref,
        background: cycles as f64 * cfg.p_background,
    }
}

/// Energy of servicing `n` 32 B elements via MEM (read + write back)
/// versus via a PIM op in place, ignoring row energy — the classic PIM
/// data-movement argument, usable as a quick estimator.
pub fn movement_savings_per_element(cfg: &EnergyConfig) -> f64 {
    let mem = cfg.e_rd_array + cfg.e_wr_array + 2.0 * cfg.e_io;
    let pim = cfg.e_rd_array + cfg.e_pim_fu;
    mem - pim
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ChannelStats {
        ChannelStats {
            refreshes: 2,
            acts: 10,
            pres: 8,
            reads: 100,
            writes: 50,
            pim_ops: 200,
            pim_blocks: 5,
        }
    }

    #[test]
    fn totals_add_up() {
        let cfg = EnergyConfig::default();
        let e = channel_energy(&cfg, &stats(), 1000, 16);
        let manual = e.row + e.mem_array + e.io + e.pim + e.refresh + e.background;
        assert!((e.total() - manual).abs() < 1e-9);
        assert!(e.total() > 0.0);
    }

    #[test]
    fn pim_ops_skip_io_energy() {
        let cfg = EnergyConfig::default();
        let mem_only = ChannelStats {
            reads: 100,
            ..Default::default()
        };
        let pim_only = ChannelStats {
            pim_ops: 100,
            ..Default::default()
        };
        let em = channel_energy(&cfg, &mem_only, 0, 16);
        let ep = channel_energy(&cfg, &pim_only, 0, 16);
        assert_eq!(ep.io, 0.0);
        assert!(em.io > 0.0);
        // 100 PIM ops process 16x the data of 100 reads; per DRAM word
        // touched they must cost less than bus-crossing reads.
        assert!(ep.total() / 16.0 < em.total());
    }

    #[test]
    fn background_scales_with_cycles() {
        let cfg = EnergyConfig::default();
        let e1 = channel_energy(&cfg, &ChannelStats::default(), 100, 16);
        let e2 = channel_energy(&cfg, &ChannelStats::default(), 200, 16);
        assert!((e2.background - 2.0 * e1.background).abs() < 1e-9);
    }

    #[test]
    fn movement_savings_positive_by_default() {
        assert!(movement_savings_per_element(&EnergyConfig::default()) > 0.0);
    }

    #[test]
    fn merge_is_additive() {
        let cfg = EnergyConfig::default();
        let mut a = channel_energy(&cfg, &stats(), 500, 16);
        let b = channel_energy(&cfg, &stats(), 300, 16);
        let total_before = a.total();
        a.merge(&b);
        assert!((a.total() - total_before - b.total()).abs() < 1e-6);
    }
}
