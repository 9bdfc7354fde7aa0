//! Structural complexity accounting for mode-switch logic (Section VII-A).
//!
//! The paper synthesizes the FR-FCFS and F3FS mode-switch logic with Vitis
//! HLS on an AMD XCZU5EV FPGA, reporting 377/88 LUTs/FFs for FR-FCFS and
//! 275/143 for F3FS. We cannot run an FPGA flow here, so this module
//! provides the *substitute* documented in `DESIGN.md`: a structural count
//! of the storage and comparison elements each switch-logic design needs,
//! which exposes the same qualitative trade-off — F3FS swaps FR-FCFS's
//! per-bank conflict tracking (wide AND-reduction over per-bank state) for
//! a pair of counters and comparators, trading combinational area (LUTs)
//! for a few more flip-flops.

/// Structural element counts for one mode-switch logic design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchLogicComplexity {
    /// Design name.
    pub name: &'static str,
    /// State bits (flip-flops).
    pub state_bits: u32,
    /// Comparators (age/ID and threshold compares).
    pub comparators: u32,
    /// Wide AND/OR reduction trees (over per-bank signals).
    pub reductions: u32,
    /// Counters that increment/reset.
    pub counters: u32,
}

/// Structural complexity of FR-FCFS's switch logic for `banks` banks:
/// a conflict bit and an issued-at-least-once bit per bank, per-bank
/// row comparators, and an all-banks AND reduction.
pub fn fr_fcfs_complexity(banks: u32) -> SwitchLogicComplexity {
    SwitchLogicComplexity {
        name: "FR-FCFS",
        // conflict bit + "has issued" bit per bank, plus the mode bit.
        state_bits: 2 * banks + 1,
        // one open-row vs. request-row comparator per bank, plus the
        // oldest-request mode compare.
        comparators: banks + 1,
        // AND over per-bank conflict bits, OR over pending masks.
        reductions: 2,
        counters: 0,
    }
}

/// Structural complexity of F3FS's switch logic: two CAP counters with
/// threshold comparators and an age comparator against the oldest
/// other-mode request; no per-bank tracking at all.
pub fn f3fs_complexity(cap_bits: u32) -> SwitchLogicComplexity {
    SwitchLogicComplexity {
        name: "F3FS",
        // two CAP counters + mode bit + registered CAP values.
        state_bits: 2 * cap_bits + 1 + 2 * cap_bits,
        // bypass-age comparator, two threshold comparators.
        comparators: 3,
        reductions: 0,
        counters: 2,
    }
}

impl SwitchLogicComplexity {
    /// A single scalar proxy for combinational area: comparators weigh
    /// most, reductions scale with bank count.
    pub fn combinational_score(&self, banks: u32) -> u32 {
        self.comparators * 8 + self.reductions * banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f3fs_trades_logic_for_state() {
        // The paper's synthesis: F3FS has fewer LUTs (275 vs 377) but more
        // FFs (143 vs 88). Our structural proxy must show the same
        // direction: less combinational logic, more state than... note
        // FR-FCFS state is per-bank bits, so compare combinational only.
        let fr = fr_fcfs_complexity(16);
        let f3 = f3fs_complexity(10); // CAP up to 1024
        assert!(
            f3.combinational_score(16) < fr.combinational_score(16),
            "F3FS must need less combinational logic"
        );
        assert!(f3.counters > fr.counters, "F3FS adds counters");
        assert_eq!(fr.counters, 0);
    }

    #[test]
    fn fr_fcfs_scales_with_banks() {
        assert!(fr_fcfs_complexity(32).state_bits > fr_fcfs_complexity(16).state_bits);
        // F3FS is bank-count independent.
        assert_eq!(f3fs_complexity(8), f3fs_complexity(8));
    }
}
