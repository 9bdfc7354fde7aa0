//! The SM issue stage: asks each mounted kernel slot that is due for its
//! next request and injects accepted requests into the request network.

use pimsim_dram::AddressMapper;
use pimsim_types::{AppId, Cycle, Request, RequestKind};

use super::completion::InflightTable;
use super::request_net::RequestNet;
use super::MountedKernel;

/// External state the issue stage borrows for one step: the kernel
/// models it polls, the network it injects into, the ticket table it
/// mints request IDs from, and the address mapper that routes MEM
/// requests to their home channel.
pub struct IssueCtx<'a> {
    /// Mounted kernels, indexed by the stage's SM map.
    pub kernels: &'a mut [MountedKernel],
    /// The request network accepting injections.
    pub net: &'a mut RequestNet,
    /// The inflight ticket table (peek-then-commit ID protocol).
    pub inflight: &'a mut InflightTable,
    /// Physical-address → channel routing for MEM requests.
    pub mapper: &'a AddressMapper,
}

/// A wake cycle no poll will reach: the SM's slot never issues again
/// this run.
const NEVER: Cycle = Cycle::MAX;

/// The issue stage: per-SM kernel occupancy, MEM-outstanding credits and
/// the wake table.
///
/// # The wake table
///
/// Each occupied SM carries the GPU cycle at which it is next polled.
/// After a poll that reaches the kernel — whether it issued or found the
/// slot pacing — the SM sleeps until its slot's
/// [`KernelModel::next_issue_cycle`] bound, and at least until the next
/// cycle: the bound says `try_issue` returns `None` before it whatever
/// completions arrive, so a poll skipped before it could not have
/// issued. An SM blocked by its MEM outstanding cap or by crossbar
/// credit is due again next cycle. Only [`KernelModel::reset`] voids a
/// bound, so a mount ([`IssueStage::occupy`]) and a kernel restart
/// (`IssueStage::wake`) make their SMs due at once. The earliest wake is
/// the stage's activity horizon ([`IssueStage::next_activity_cycle`]),
/// which the fast-forward probe reads.
///
/// [`KernelModel::next_issue_cycle`]: pimsim_gpu::KernelModel::next_issue_cycle
/// [`KernelModel::reset`]: pimsim_gpu::KernelModel::reset
#[derive(Debug)]
pub struct IssueStage {
    /// Global SM index -> (kernel index, slot index).
    sm_map: Vec<Option<(usize, usize)>>,
    /// Occupied SM indices, ascending — the step loop iterates this dense
    /// list instead of scanning all `num_sms` slots (standalone runs
    /// mount a handful of SMs on an 80-SM GPU). Kept sorted so the visit
    /// order is identical to the historical full scan.
    occupied: Vec<usize>,
    /// Outstanding requests per global SM (MEM kernels' throttle).
    sm_outstanding: Vec<usize>,
    /// Per-SM cap on outstanding MEM requests.
    max_outstanding_mem: usize,
    /// Per global SM: the GPU cycle at which it is next polled.
    wake_at: Vec<Cycle>,
    /// The earliest entry of `wake_at` over the occupied SMs.
    next_wake: Cycle,
    /// The wake table off: every occupied SM is polled every cycle,
    /// whatever its kernel's issue bound says (the reference simulator).
    pub(crate) poll_every_cycle: bool,
}

impl IssueStage {
    /// An issue stage for `num_sms` SMs with the given MEM throttle.
    pub fn new(num_sms: usize, max_outstanding_mem: usize) -> Self {
        IssueStage {
            sm_map: vec![None; num_sms],
            occupied: Vec::new(),
            sm_outstanding: vec![0; num_sms],
            max_outstanding_mem,
            wake_at: vec![NEVER; num_sms],
            next_wake: NEVER,
            poll_every_cycle: false,
        }
    }

    /// Assigns global SM `sm` to `(kernel, slot)`; the SM is due at the
    /// next poll.
    ///
    /// # Panics
    ///
    /// Panics if the SM is out of range or already occupied.
    pub fn occupy(&mut self, sm: usize, kernel: usize, slot: usize) {
        assert!(sm < self.sm_map.len(), "SM index out of range");
        assert!(self.sm_map[sm].is_none(), "SM {sm} already occupied");
        self.sm_map[sm] = Some((kernel, slot));
        let at = self.occupied.partition_point(|&s| s < sm);
        self.occupied.insert(at, sm);
        self.wake(&[sm]);
    }

    /// Makes `sms` due at the next poll — their kernel was reset, which
    /// voids the bounds they sleep on.
    pub(crate) fn wake(&mut self, sms: &[usize]) {
        for &sm in sms {
            self.wake_at[sm] = 0;
        }
        self.next_wake = 0;
    }

    /// Returns one MEM-outstanding credit to `sm` (called by the
    /// completion stage when a reply retires).
    pub fn credit_return(&mut self, sm: usize) {
        debug_assert!(self.sm_outstanding[sm] > 0);
        self.sm_outstanding[sm] -= 1;
    }

    /// One GPU cycle: polls every due SM's kernel slot and injects what
    /// it issues, then records each polled SM's next wake.
    pub fn step(&mut self, now: Cycle, ctx: IssueCtx<'_>) {
        let mut next_wake = NEVER;
        for &sm in &self.occupied {
            if self.wake_at[sm] > now {
                next_wake = next_wake.min(self.wake_at[sm]);
                continue;
            }
            let Some((k, slot)) = self.sm_map[sm] else {
                unreachable!("occupied list out of sync with SM map");
            };
            let kernel = &mut ctx.kernels[k];
            let is_pim = kernel.is_pim;
            // MEM kernels are throttled by the SM's outstanding cap; PIM
            // kernels self-throttle per warp (store-buffer credits). A
            // blocked SM never reaches its kernel and is due again next
            // cycle.
            let blocked = (!is_pim && self.sm_outstanding[sm] >= self.max_outstanding_mem)
                || !ctx.net.can_inject(sm, is_pim);
            let wake = if blocked {
                now + 1
            } else {
                // Peek-then-commit: the ID is only consumed from the
                // table if the kernel actually issues, so idle probes
                // leave the allocator untouched — which is what makes
                // skipping a poll (sleeping SMs, fast-forward) exact.
                let id = ctx.inflight.peek_id();
                if let Some(issued) = kernel.model.try_issue(slot, now, id) {
                    debug_assert_eq!(issued.kind.is_pim(), is_pim);
                    let req = Request::new(
                        id,
                        if is_pim { AppId::PIM } else { AppId::GPU },
                        issued.kind,
                        issued.addr,
                        sm as u16,
                        now,
                    );
                    let dest = match issued.kind {
                        RequestKind::Pim(cmd) => cmd.channel as usize,
                        _ => ctx.mapper.decode(issued.addr).channel as usize,
                    };
                    ctx.net.inject(now, sm, req, dest);
                    kernel.icnt_injections += 1;
                    let committed = ctx.inflight.insert(k, slot);
                    debug_assert_eq!(committed, id);
                    if !is_pim {
                        self.sm_outstanding[sm] += 1;
                    }
                }
                if self.poll_every_cycle {
                    now + 1
                } else {
                    kernel
                        .model
                        .next_issue_cycle(slot, now + 1)
                        .map_or(NEVER, |at| at.max(now + 1))
                }
            };
            self.wake_at[sm] = wake;
            next_wake = next_wake.min(wake);
        }
        self.next_wake = next_wake;
    }

    /// The earliest cycle at or after `now` at which some SM is due for
    /// a poll, or `None` while every mounted slot has issued all of its
    /// work.
    pub fn next_activity_cycle(&self, now: Cycle) -> Option<Cycle> {
        (self.next_wake != NEVER).then(|| self.next_wake.max(now))
    }
}
