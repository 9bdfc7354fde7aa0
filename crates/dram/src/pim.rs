//! PIM functional-unit state: the per-bank register file that holds
//! operands across blocks (and across MEM/PIM mode switches).
//!
//! Because PIM mode executes in lock-step — every bank of a channel runs
//! the same op on the same RF entry — a single RF image per channel
//! faithfully tracks the *validity* of entries for every bank. We do not
//! simulate data values; the engine checks the dataflow discipline of
//! Figure 3: computes and stores may only read entries that a load or
//! compute previously wrote.
//!
//! The engine is purely functional in time: executing an op depends only
//! on the *sequence* of ops, never on the cycle they issue at. The
//! controller's burst-retirement path relies on this — when a homogeneous
//! PIM run is retired analytically each engine op executes at its
//! *analytic* issue cycle rather than through a per-cycle decision, and
//! the RF image lands in the same state per-cycle issue would have
//! produced (DESIGN.md §4h).

use pimsim_types::{Cycle, PimCommand, PimOpKind};

/// Error returned when a PIM op violates the register-file discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RfDisciplineError {
    /// The offending op.
    pub op: PimOpKind,
    /// The RF entry it touched.
    pub entry: u8,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for RfDisciplineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PIM register-file discipline violation: {} on entry {}: {}",
            self.op, self.entry, self.reason
        )
    }
}

impl std::error::Error for RfDisciplineError {}

/// Lock-step register-file tracker for one channel's PIM FUs.
#[derive(Debug, Clone)]
pub struct PimEngine {
    /// Valid bit per per-bank RF entry.
    valid: Vec<bool>,
    /// Last block id observed, for monotonicity checks.
    last_block: Option<u64>,
    ops_executed: u64,
    blocks_started: u64,
}

impl PimEngine {
    /// Creates an engine with `rf_entries_per_bank` invalid entries.
    pub fn new(rf_entries_per_bank: usize) -> Self {
        PimEngine {
            valid: vec![false; rf_entries_per_bank],
            last_block: None,
            ops_executed: 0,
            blocks_started: 0,
        }
    }

    /// Total PIM ops executed.
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Total blocks started.
    pub fn blocks_started(&self) -> u64 {
        self.blocks_started
    }

    /// The earliest cycle at or after `now` at which the engine will act
    /// on its own: always `None`. The PIM datapath is purely reactive — it
    /// executes only when the controller feeds it a command — so it never
    /// constrains the simulator's idle-span skipping.
    pub fn next_activity_cycle(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    /// Records execution of `cmd`, validating RF discipline and block
    /// ordering.
    ///
    /// # Errors
    ///
    /// Returns [`RfDisciplineError`] if the entry index is out of range, a
    /// compute/store reads an invalid entry, or blocks arrive out of order.
    pub fn execute(&mut self, cmd: &PimCommand) -> Result<(), RfDisciplineError> {
        let entry = cmd.rf_entry as usize;
        if entry >= self.valid.len() {
            return Err(RfDisciplineError {
                op: cmd.op,
                entry: cmd.rf_entry,
                reason: format!("entry out of range (rf has {} entries)", self.valid.len()),
            });
        }
        if cmd.block_start {
            if let Some(last) = self.last_block {
                if cmd.block_id <= last {
                    return Err(RfDisciplineError {
                        op: cmd.op,
                        entry: cmd.rf_entry,
                        reason: format!(
                            "block {} started after block {} (blocks must execute in order)",
                            cmd.block_id, last
                        ),
                    });
                }
            }
            self.last_block = Some(cmd.block_id);
            self.blocks_started += 1;
        }
        match cmd.op {
            PimOpKind::RfLoad => {
                self.valid[entry] = true;
            }
            PimOpKind::RfCompute => {
                if !self.valid[entry] {
                    return Err(RfDisciplineError {
                        op: cmd.op,
                        entry: cmd.rf_entry,
                        reason: "compute reads an entry never loaded".into(),
                    });
                }
                // Result stays in the RF; entry remains valid.
            }
            PimOpKind::RfStore => {
                if !self.valid[entry] {
                    return Err(RfDisciplineError {
                        op: cmd.op,
                        entry: cmd.rf_entry,
                        reason: "store reads an entry never loaded".into(),
                    });
                }
            }
        }
        self.ops_executed += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(op: PimOpKind, entry: u8, block_start: bool, block_id: u64) -> PimCommand {
        PimCommand {
            op,
            channel: 0,
            row: 0,
            col: 0,
            rf_entry: entry,
            block_start,
            block_id,
        }
    }

    #[test]
    fn load_compute_store_sequence_is_legal() {
        let mut e = PimEngine::new(8);
        e.execute(&cmd(PimOpKind::RfLoad, 0, true, 0)).unwrap();
        e.execute(&cmd(PimOpKind::RfCompute, 0, true, 1)).unwrap();
        e.execute(&cmd(PimOpKind::RfStore, 0, true, 2)).unwrap();
        assert_eq!(e.ops_executed(), 3);
        assert_eq!(e.blocks_started(), 3);
    }

    #[test]
    fn compute_before_load_is_rejected() {
        let mut e = PimEngine::new(8);
        let err = e
            .execute(&cmd(PimOpKind::RfCompute, 3, true, 0))
            .unwrap_err();
        assert!(err.reason.contains("never loaded"));
    }

    #[test]
    fn store_before_load_is_rejected() {
        let mut e = PimEngine::new(8);
        assert!(e.execute(&cmd(PimOpKind::RfStore, 1, true, 0)).is_err());
    }

    #[test]
    fn out_of_range_entry_is_rejected() {
        let mut e = PimEngine::new(8);
        let err = e.execute(&cmd(PimOpKind::RfLoad, 8, true, 0)).unwrap_err();
        assert!(err.reason.contains("out of range"));
    }

    #[test]
    fn blocks_must_arrive_in_order() {
        let mut e = PimEngine::new(8);
        e.execute(&cmd(PimOpKind::RfLoad, 0, true, 5)).unwrap();
        let err = e.execute(&cmd(PimOpKind::RfLoad, 0, true, 4)).unwrap_err();
        assert!(err.reason.contains("in order"));
    }

    #[test]
    fn rf_state_persists_across_blocks() {
        // The register file holds state across block (and mode-switch)
        // boundaries — Section II-A of the paper.
        let mut e = PimEngine::new(8);
        e.execute(&cmd(PimOpKind::RfLoad, 2, true, 0)).unwrap();
        for i in 1..4 {
            e.execute(&cmd(PimOpKind::RfCompute, 2, true, i)).unwrap();
        }
        e.execute(&cmd(PimOpKind::RfStore, 2, true, 4)).unwrap();
    }
}
