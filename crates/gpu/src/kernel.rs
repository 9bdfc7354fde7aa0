//! The kernel-model abstraction shared by MEM and PIM kernels.

use pimsim_types::{Cycle, PhysAddr, RequestId, RequestKind};

/// A request produced by a kernel model, before the simulator wraps it in
/// a [`pimsim_types::Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuedRequest {
    /// What to do.
    pub kind: RequestKind,
    /// Physical address (for PIM requests, a synthesized address; the real
    /// target is inside the embedded command).
    pub addr: PhysAddr,
}

/// A kernel's memory-request stream, split across the SMs it occupies.
///
/// The simulator drives each SM slot independently:
///
/// 1. on every GPU cycle at or after the slot's
///    [`KernelModel::next_issue_cycle`] bound, if the slot has injection
///    capacity, it calls [`KernelModel::try_issue`] with the
///    [`RequestId`] the request will carry;
/// 2. when the memory system acknowledges a request, it calls
///    [`KernelModel::on_complete`] with that ID;
/// 3. the kernel is finished when [`KernelModel::is_done`] — all work
///    issued *and* acknowledged.
///
/// Flow control: regular kernels are throttled by the simulator's per-SM
/// outstanding cap; PIM kernels self-throttle per warp (store-buffer
/// capacity) and by Orderlight ordering.
pub trait KernelModel: Send {
    /// Kernel name for reporting (e.g. `"bfs"`, `"Stream Add"`).
    fn name(&self) -> &str;

    /// Number of SM slots this kernel occupies.
    fn num_slots(&self) -> usize;

    /// Produce the next request from `slot`, or `None` if the slot is
    /// pacing (compute phase), throttled, or out of work.
    fn try_issue(&mut self, slot: usize, now: Cycle, id: RequestId) -> Option<IssuedRequest>;

    /// A request issued from `slot` was acknowledged by the memory system.
    fn on_complete(&mut self, slot: usize, id: RequestId, now: Cycle);

    /// All work issued and acknowledged.
    fn is_done(&self) -> bool;

    /// Total requests this kernel will issue per run.
    fn total_requests(&self) -> u64;

    /// Restart the kernel for a fresh run (kernels run in a loop in the
    /// paper's methodology; the re-run re-seeds deterministically).
    fn reset(&mut self);

    /// The earliest GPU cycle at or after `now` at which `slot` *could*
    /// produce a request, or `None` if the slot will never issue again
    /// this run (its share of the work is all issued).
    ///
    /// This is the activity hook of the event-driven simulator. The issue
    /// stage polls a slot only once its bound is due, and the
    /// fast-forward path jumps the clocks over spans in which no slot is
    /// due and nothing else in the system can act.
    ///
    /// Contract: the returned cycle must be a *lower bound* that holds
    /// until the next [`KernelModel::reset`]: `try_issue(slot, t, _)` must
    /// return `None` at every cycle `t` in `now..returned`, whatever
    /// completions arrive and whatever other slots issue in between.
    /// Returning `Some(now)` is always sound (the slot is polled every
    /// cycle); returning a cycle later than the true next issue is
    /// **unsound**, because the skipped polls would have issued. The
    /// default is the conservative `Some(now)`.
    fn next_issue_cycle(&self, slot: usize, now: Cycle) -> Option<Cycle> {
        let _ = slot;
        Some(now)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::VecDeque;

    use super::*;

    /// Drives every slot of `model` on every cycle below `cycles`,
    /// acknowledging each request `latency` cycles after it issues, and
    /// checks the [`KernelModel::next_issue_cycle`] contract: a slot never
    /// issues before the bound it reported after its previous poll,
    /// whatever completions arrived since. Returns the requests issued.
    pub(crate) fn assert_issue_bounds_hold(
        model: &mut dyn KernelModel,
        cycles: Cycle,
        latency: Cycle,
    ) -> u64 {
        let mut bounds: Vec<Option<Cycle>> = vec![Some(0); model.num_slots()];
        let mut pending = VecDeque::new();
        let mut issued = 0;
        for now in 0..cycles {
            while let Some(&(at, slot, id)) = pending.front() {
                if at > now {
                    break;
                }
                pending.pop_front();
                model.on_complete(slot, id, now);
            }
            for (slot, bound) in bounds.iter_mut().enumerate() {
                let id = RequestId(issued);
                if model.try_issue(slot, now, id).is_some() {
                    assert!(
                        bound.is_some_and(|b| b <= now),
                        "slot {slot} issued at cycle {now} before its bound {bound:?}"
                    );
                    pending.push_back((now + latency, slot, id));
                    issued += 1;
                }
                *bound = model.next_issue_cycle(slot, now + 1);
            }
        }
        issued
    }
}
