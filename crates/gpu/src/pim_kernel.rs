//! PIM kernel model with the block structure of Figure 3.
//!
//! A PIM kernel maps each warp to one memory channel (the paper's
//! simplified Table I address mapping exists exactly to allow this) and
//! issues fine-grained PIM operations as cache-streaming stores, in strict
//! program order per warp (Orderlight barriers prevent reordering in the
//! SM, and the FIFO interconnect path plus the FCFS PIM queue preserve
//! order to the FU).
//!
//! Work is organized in *blocks*: runs of operations to the same row,
//! separated by a precharge + activate. Blocks follow a repeating phase
//! pattern (e.g. `load a / add b / store c` for vector addition), each
//! phase reading or writing a different row.

use std::collections::HashMap;

use pimsim_types::{Cycle, PhysAddr, PimCommand, PimOpKind, RequestId, RequestKind};

use crate::kernel::{IssuedRequest, KernelModel};

/// One phase of a PIM kernel's repeating block pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PimPhase {
    /// Load a row into the register file.
    Load,
    /// Combine a row with the register file (SIMD compute).
    Compute,
    /// Store the register file into a row.
    Store,
}

impl PimPhase {
    fn op(self) -> PimOpKind {
        match self {
            PimPhase::Load => PimOpKind::RfLoad,
            PimPhase::Compute => PimOpKind::RfCompute,
            PimPhase::Store => PimOpKind::RfStore,
        }
    }
}

/// Static description of a PIM kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct PimKernelSpec {
    /// Kernel name (e.g. `"Stream Add"`).
    pub name: String,
    /// Repeating block phase pattern. Must begin with [`PimPhase::Load`]
    /// so the register file is initialized before computes/stores.
    pub pattern: Vec<PimPhase>,
    /// Operations per block (a multiple of the per-bank RF size in real
    /// kernels; capped by the row size).
    pub ops_per_block: u32,
    /// Blocks issued per channel per run (total work, scaled).
    pub blocks_per_channel: u64,
    /// Number of memory channels (= number of warps).
    pub channels: usize,
    /// Register-file entries per bank (rf indices cycle through these).
    pub rf_entries_per_bank: u8,
    /// Rows available per bank (rows wrap modulo this).
    pub max_row: u32,
}

impl PimKernelSpec {
    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty or does not start with `Load`, or if
    /// any structural parameter is zero.
    pub fn validate(&self) {
        assert!(
            self.pattern.first() == Some(&PimPhase::Load),
            "{}: pattern must start with a Load",
            self.name
        );
        assert!(self.ops_per_block > 0, "{}: empty blocks", self.name);
        assert!(self.blocks_per_channel > 0, "{}: no work", self.name);
        assert!(self.channels > 0, "{}: no channels", self.name);
        assert!(self.rf_entries_per_bank > 0, "{}: no RF", self.name);
        assert!(
            self.max_row > self.pattern.len() as u32,
            "{}: too few rows",
            self.name
        );
    }

    /// Total PIM operations across all channels per run.
    pub fn total_ops(&self) -> u64 {
        self.blocks_per_channel * u64::from(self.ops_per_block) * self.channels as u64
    }
}

/// Per-warp issue state.
#[derive(Debug, Clone)]
struct Warp {
    channel: u16,
    next_block: u64,
    next_op: u32,
    outstanding: u32,
    done_issuing: bool,
    /// Block-ID offset accumulated across kernel re-launches, so block IDs
    /// stay globally monotonic per channel (the FU ordering invariant).
    block_base: u64,
}

/// A PIM kernel occupying `num_slots` SMs, one warp per channel.
///
/// # Example
///
/// ```
/// use pimsim_gpu::{KernelModel, PimKernelModel, PimKernelSpec, PimPhase};
///
/// let spec = PimKernelSpec {
///     name: "Stream Add".into(),
///     pattern: vec![PimPhase::Load, PimPhase::Compute, PimPhase::Store],
///     ops_per_block: 8,
///     blocks_per_channel: 6,
///     channels: 32,
///     rf_entries_per_bank: 8,
///     max_row: 1 << 13,
/// };
/// let k = PimKernelModel::new(spec, 8, 4, 32);
/// assert_eq!(k.total_requests(), 6 * 8 * 32);
/// ```
#[derive(Debug, Clone)]
pub struct PimKernelModel {
    spec: PimKernelSpec,
    warps_per_slot: usize,
    max_outstanding: u32,
    warps: Vec<Warp>,
    /// Round-robin pointer per slot over its warps.
    rr: Vec<usize>,
    /// RequestId -> warp index, for completion routing.
    inflight: HashMap<u64, usize>,
    issued: u64,
    completed: u64,
}

impl PimKernelModel {
    /// Creates the kernel on `num_slots` SMs with `warps_per_slot` warps
    /// each and a per-warp outstanding-store cap of `max_outstanding`.
    ///
    /// # Panics
    ///
    /// Panics if the warp count does not equal the channel count (the
    /// paper's mapping needs exactly one warp per channel to keep PIM
    /// blocks ordered), or if the spec fails validation.
    pub fn new(
        spec: PimKernelSpec,
        num_slots: usize,
        warps_per_slot: usize,
        max_outstanding: u32,
    ) -> Self {
        spec.validate();
        let total_warps = num_slots * warps_per_slot;
        assert_eq!(
            total_warps, spec.channels,
            "PIM mapping requires one warp per channel ({} warps vs {} channels)",
            total_warps, spec.channels
        );
        assert!(max_outstanding > 0, "outstanding cap must be nonzero");
        let warps = (0..total_warps)
            .map(|w| Warp {
                channel: w as u16,
                next_block: 0,
                next_op: 0,
                outstanding: 0,
                done_issuing: false,
                block_base: 0,
            })
            .collect();
        PimKernelModel {
            spec,
            warps_per_slot,
            max_outstanding,
            warps,
            rr: vec![0; num_slots],
            inflight: HashMap::new(),
            issued: 0,
            completed: 0,
        }
    }

    /// The kernel's spec.
    pub fn spec(&self) -> &PimKernelSpec {
        &self.spec
    }

    fn make_command(&self, warp: &Warp) -> PimCommand {
        let spec = &self.spec;
        let pattern_len = spec.pattern.len() as u64;
        let phase_idx = (warp.next_block % pattern_len) as usize;
        let phase = spec.pattern[phase_idx];
        // Each block gets its own row; consecutive blocks (different
        // phases of a chunk, or the next chunk) map to different rows,
        // wrapping within the bank.
        let row = (warp.next_block % u64::from(spec.max_row)) as u32;
        PimCommand {
            op: phase.op(),
            channel: warp.channel,
            row,
            col: (warp.next_op % 64) as u16,
            rf_entry: (warp.next_op % u32::from(spec.rf_entries_per_bank)) as u8,
            block_start: warp.next_op == 0,
            block_id: warp.block_base + warp.next_block,
        }
    }
}

impl KernelModel for PimKernelModel {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn num_slots(&self) -> usize {
        self.rr.len()
    }

    fn try_issue(&mut self, slot: usize, _now: Cycle, id: RequestId) -> Option<IssuedRequest> {
        let base = slot * self.warps_per_slot;
        for i in 0..self.warps_per_slot {
            let wi = base + (self.rr[slot] + i) % self.warps_per_slot;
            let ready = {
                let w = &self.warps[wi];
                !w.done_issuing && w.outstanding < self.max_outstanding
            };
            if !ready {
                continue;
            }
            let cmd = self.make_command(&self.warps[wi]);
            let w = &mut self.warps[wi];
            w.outstanding += 1;
            w.next_op += 1;
            if u64::from(w.next_op) >= u64::from(self.spec.ops_per_block) {
                w.next_op = 0;
                w.next_block += 1;
                if w.next_block >= self.spec.blocks_per_channel {
                    w.done_issuing = true;
                }
            }
            self.rr[slot] = (self.rr[slot] + i + 1) % self.warps_per_slot;
            self.inflight.insert(id.0, wi);
            self.issued += 1;
            // Synthesized address: unique per op, never used for routing
            // (the PIM command carries the channel/row/col target).
            let addr = (u64::from(cmd.channel) << 48) | (cmd.block_id << 16) | u64::from(cmd.col);
            return Some(IssuedRequest {
                kind: RequestKind::Pim(cmd),
                addr: PhysAddr(addr),
            });
        }
        None
    }

    fn on_complete(&mut self, _slot: usize, id: RequestId, _now: Cycle) {
        let wi = self
            .inflight
            .remove(&id.0)
            .unwrap_or_else(|| panic!("completion for unknown PIM request {id}"));
        let w = &mut self.warps[wi];
        debug_assert!(w.outstanding > 0);
        w.outstanding -= 1;
        self.completed += 1;
    }

    fn is_done(&self) -> bool {
        self.issued == self.total_requests() && self.completed == self.issued
    }

    fn total_requests(&self) -> u64 {
        self.spec.total_ops()
    }

    fn reset(&mut self) {
        for w in &mut self.warps {
            w.block_base += self.spec.blocks_per_channel;
            w.next_block = 0;
            w.next_op = 0;
            w.outstanding = 0;
            w.done_issuing = false;
        }
        self.inflight.clear();
        self.issued = 0;
        self.completed = 0;
    }

    fn next_issue_cycle(&self, slot: usize, now: Cycle) -> Option<Cycle> {
        // PIM warps are throttled by store-buffer credits, not by time: a
        // warp with work left may become issuable the moment an ack
        // arrives, so the only safe answers are "now" and "never".
        let base = slot * self.warps_per_slot;
        self.warps[base..base + self.warps_per_slot]
            .iter()
            .any(|w| !w.done_issuing)
            .then_some(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PimKernelSpec {
        PimKernelSpec {
            name: "test-add".into(),
            pattern: vec![PimPhase::Load, PimPhase::Compute, PimPhase::Store],
            ops_per_block: 4,
            blocks_per_channel: 6,
            channels: 8,
            rf_entries_per_bank: 4,
            max_row: 64,
        }
    }

    fn model() -> PimKernelModel {
        PimKernelModel::new(spec(), 2, 4, 16)
    }

    #[test]
    fn ops_follow_block_structure_in_order() {
        let mut k = model();
        let mut id = 0u64;
        let mut ops: Vec<PimCommand> = Vec::new();
        // Drain warp 0 (slot 0) only: issue until it would switch warps.
        for now in 0..200 {
            if let Some(r) = k.try_issue(0, now, RequestId(id)) {
                let cmd = *r.kind.pim().unwrap();
                if cmd.channel == 0 {
                    ops.push(cmd);
                }
                k.on_complete(0, RequestId(id), now);
                id += 1;
            }
        }
        let ch0: Vec<&PimCommand> = ops.iter().collect();
        assert_eq!(ch0.len(), 6 * 4, "all channel-0 ops issued");
        // Blocks in order, ops within block in order, block_start correct.
        for (i, c) in ch0.iter().enumerate() {
            let block = (i / 4) as u64;
            let op = (i % 4) as u32;
            assert_eq!(c.block_id, block);
            assert_eq!(c.block_start, op == 0);
        }
        // Phase pattern repeats Load, Compute, Store.
        assert_eq!(ch0[0].op, PimOpKind::RfLoad);
        assert_eq!(ch0[4].op, PimOpKind::RfCompute);
        assert_eq!(ch0[8].op, PimOpKind::RfStore);
        assert_eq!(ch0[12].op, PimOpKind::RfLoad);
    }

    #[test]
    fn issue_bounds_are_lower_bounds() {
        // A cap of 2 with slow acks keeps warps throttled most of the run.
        let mut k = PimKernelModel::new(spec(), 2, 4, 2);
        let issued = crate::kernel::tests::assert_issue_bounds_hold(&mut k, 2_000, 15);
        assert_eq!(issued, k.total_requests());
        assert!(k.is_done());
        assert_eq!(k.next_issue_cycle(1, 2_000), None, "all work issued");
    }

    #[test]
    fn outstanding_cap_throttles_issue() {
        let mut k = PimKernelModel::new(spec(), 2, 4, 2);
        // Never complete anything: each of the 4 warps in slot 0 can have
        // at most 2 outstanding -> 8 issues, then stall.
        let mut n = 0u64;
        for now in 0..100 {
            if k.try_issue(0, now, RequestId(n)).is_some() {
                n += 1;
            }
        }
        assert_eq!(n, 8, "4 warps x cap 2");
    }

    #[test]
    fn warps_map_one_to_one_onto_channels() {
        let mut k = model();
        let mut seen = std::collections::HashSet::new();
        for id in 0..8u64 {
            let slot = (id % 2) as usize;
            if let Some(r) = k.try_issue(slot, id, RequestId(id)) {
                seen.insert(r.kind.pim().unwrap().channel);
            }
        }
        assert!(seen.len() >= 4, "round-robin must cover multiple channels");
    }

    #[test]
    fn consecutive_blocks_use_different_rows() {
        let mut k = PimKernelModel::new(
            PimKernelSpec {
                channels: 1,
                ..spec()
            },
            1,
            1,
            64,
        );
        let mut rows = Vec::new();
        for id in 0..24u64 {
            let r = k.try_issue(0, id, RequestId(id)).unwrap();
            let c = *r.kind.pim().unwrap();
            if c.block_start {
                rows.push(c.row);
            }
            k.on_complete(0, RequestId(id), id);
        }
        for w in rows.windows(2) {
            assert_ne!(w[0], w[1], "adjacent blocks must map to different rows");
        }
    }

    #[test]
    fn completes_exactly_total_ops() {
        let mut k = model();
        let mut id = 0u64;
        for now in 0..10_000 {
            for slot in 0..2 {
                if let Some(_r) = k.try_issue(slot, now, RequestId(id)) {
                    k.on_complete(slot, RequestId(id), now);
                    id += 1;
                }
            }
            if k.is_done() {
                break;
            }
        }
        assert!(k.is_done());
        assert_eq!(id, k.total_requests());
    }

    #[test]
    fn reset_restores_full_work() {
        let mut k = model();
        for id in 0..10u64 {
            if k.try_issue(0, id, RequestId(id)).is_some() {
                k.on_complete(0, RequestId(id), id);
            }
        }
        k.reset();
        assert_eq!(k.issued, 0);
        assert!(!k.is_done());
        assert!(k.try_issue(0, 0, RequestId(99)).is_some());
    }

    #[test]
    #[should_panic(expected = "one warp per channel")]
    fn warp_channel_mismatch_rejected() {
        let _ = PimKernelModel::new(spec(), 1, 4, 8); // 4 warps, 8 channels
    }

    #[test]
    #[should_panic(expected = "must start with a Load")]
    fn pattern_without_load_rejected() {
        let mut s = spec();
        s.pattern = vec![PimPhase::Store];
        s.validate();
    }

    #[test]
    #[should_panic(expected = "completion for unknown")]
    fn unknown_completion_panics() {
        let mut k = model();
        k.on_complete(0, RequestId(12345), 0);
    }
}
