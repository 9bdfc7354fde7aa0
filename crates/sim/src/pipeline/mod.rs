//! The simulator's pipeline, decomposed into explicit components.
//!
//! The paper's system (Figure 7) is a pipeline of shared resources:
//!
//! ```text
//! [IssueStage] -> [RequestNet] -> [MemoryStage: L2 + MC + DRAM/PIM]
//!      ^                               |            |
//!      |                        reply wires   ack schedules
//!      +-- [CompletionStage] <- [ReplyNet] <------+
//! ```
//!
//! Each stage is a struct owning its internal state; the hand-offs between
//! stages are typed credit-based queues ([`Wire`]/[`Port`]) exposed by the
//! stage that buffers them. PIM acks skip the reply network: each
//! controller keeps them in a time-ordered schedule that the completion
//! stage drains by cycle. Each clocked stage has a `step(now, ctx)`
//! method whose context borrows exactly the neighbouring state it needs:
//! [`IssueStage`], [`RequestNet`], and [`ReplyNet`] step on the GPU clock,
//! and the [`MemoryStage`] runs one GPU cycle of memory work at a time, in
//! which each [`crate::partition::Partition`] steps its L2 front half on
//! the GPU clock and its controller on the DRAM clock. [`CompletionStage`]
//! is a combinational sink (it runs twice per GPU cycle, once for PIM acks
//! and once for delivered replies), and [`ClockCoupler`] is the exact
//! rational coupling between the two clock domains.
//!
//! The scheduler that sequences these stages is [`crate::Simulator`]; its
//! step order is fixed and documented there.

mod clock;
mod completion;
mod issue;
mod memory;
mod reply_net;
mod request_net;

pub use clock::ClockCoupler;
pub use completion::{CompletionStage, InflightTable, INTERNAL_ID_BIT, INTERNAL_LANE_SHIFT};
pub use issue::{IssueCtx, IssueStage};
pub use memory::MemoryStage;
pub use pimsim_component::{Port, Wire, WireStats};
pub use reply_net::{ReplyNet, ReplyNetCtx};
pub use request_net::RequestNet;

use pimsim_gpu::KernelModel;
use pimsim_types::Cycle;

/// A kernel mounted on a set of SMs.
pub struct MountedKernel {
    /// The kernel model.
    pub model: Box<dyn KernelModel>,
    /// Global SM indices this kernel occupies (slot `i` = `sms[i]`).
    pub sms: Vec<usize>,
    /// Whether this kernel issues PIM requests.
    pub is_pim: bool,
    /// Restart the kernel when it completes (the paper's "run in a loop"
    /// methodology).
    pub restart: bool,
    /// GPU cycle the current run started.
    pub run_started: Cycle,
    /// Execution time (GPU cycles) of the first completed run.
    pub first_run_cycles: Option<u64>,
    /// Completed runs.
    pub runs: u64,
    /// Requests injected into the interconnect by this kernel.
    pub icnt_injections: u64,
}

impl std::fmt::Debug for MountedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MountedKernel")
            .field("name", &self.model.name())
            .field("sms", &self.sms.len())
            .field("is_pim", &self.is_pim)
            .field("runs", &self.runs)
            .finish()
    }
}

/// End-of-cycle kernel bookkeeping: records first-run times and restarts
/// looping kernels. A restart voids the issue bounds the kernel's SMs
/// sleep on, so it wakes them in `issue`'s wake table.
pub fn check_kernel_completion(kernels: &mut [MountedKernel], issue: &mut IssueStage, now: Cycle) {
    for kernel in kernels {
        if !kernel.model.is_done() {
            continue;
        }
        if kernel.restart {
            let elapsed = now + 1 - kernel.run_started;
            if kernel.first_run_cycles.is_none() {
                kernel.first_run_cycles = Some(elapsed);
            }
            kernel.runs += 1;
            kernel.model.reset();
            issue.wake(&kernel.sms);
            kernel.run_started = now + 1;
        } else if kernel.first_run_cycles.is_none() {
            kernel.first_run_cycles = Some(now + 1 - kernel.run_started);
            kernel.runs = 1;
        }
    }
}

/// Error returned when a simulation exceeds its cycle budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleBudgetExceeded {
    /// The budget that was exhausted.
    pub max_gpu_cycles: u64,
    /// Human-readable progress description.
    pub progress: String,
}

impl std::fmt::Display for CycleBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation exceeded {} GPU cycles ({})",
            self.max_gpu_cycles, self.progress
        )
    }
}

impl std::error::Error for CycleBudgetExceeded {}
