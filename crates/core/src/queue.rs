//! Memory-controller request queues.
//!
//! Each channel's controller keeps two queues (Figure 1): a MEM queue for
//! regular loads/stores and a PIM queue, serviced in FCFS order for
//! correctness. Every request receives an incrementing *age* ID on entry —
//! the age ordering is what "oldest first" and F3FS's bypass CAP are
//! defined over (Section VII).

use std::collections::VecDeque;

use pimsim_types::{Cycle, DecodedAddr, Mode, Request, RequestKind};

use crate::mem_index::MemIndex;
use crate::policy::{PolicyView, SchedulePolicy};

/// A request inside the memory controller, annotated with its decoded DRAM
/// coordinates and its MC-assigned age.
#[derive(Debug, Clone, Copy)]
pub struct QueuedRequest {
    /// The request payload.
    pub req: Request,
    /// DRAM coordinates (for PIM requests: channel/row/col of the op; the
    /// bank field is unused because PIM executes on all banks).
    pub decoded: DecodedAddr,
    /// Incrementing ID assigned on arrival at this controller; smaller is
    /// older.
    pub age: u64,
    /// DRAM cycle of arrival at this controller.
    pub arrived: Cycle,
    /// Controller bookkeeping: an ACT has been issued on this request's
    /// behalf (its column access will not count as a row hit).
    pub opened_row: bool,
}

/// The MEM and PIM queues of one channel's controller.
#[derive(Debug, Clone)]
pub struct McQueues {
    /// In arrival order, which is age order: ages are assigned
    /// monotonically and removal keeps the order.
    mem: Vec<QueuedRequest>,
    pim: VecDeque<QueuedRequest>,
    mem_capacity: usize,
    pim_capacity: usize,
    next_age: u64,
    /// The MEM queue again, per bank, with each bank's cached best
    /// candidate; maintained on enqueue/remove.
    index: MemIndex,
}

impl McQueues {
    /// Creates empty queues with the given capacities.
    pub fn new(mem_capacity: usize, pim_capacity: usize) -> Self {
        McQueues {
            mem: Vec::with_capacity(mem_capacity),
            pim: VecDeque::with_capacity(pim_capacity),
            mem_capacity,
            pim_capacity,
            next_age: 0,
            index: MemIndex::new(),
        }
    }

    /// Whether a request of the given kind can be accepted now.
    pub fn can_accept(&self, is_pim: bool) -> bool {
        if is_pim {
            self.pim.len() < self.pim_capacity
        } else {
            self.mem.len() < self.mem_capacity
        }
    }

    /// Enqueues `req`, assigning it the next age.
    ///
    /// # Panics
    ///
    /// Panics if the target queue is full (check [`McQueues::can_accept`]).
    pub fn enqueue(&mut self, req: Request, decoded: DecodedAddr, now: Cycle) -> u64 {
        let age = self.next_age;
        self.next_age += 1;
        let q = QueuedRequest {
            req,
            decoded,
            age,
            arrived: now,
            opened_row: false,
        };
        if req.kind.is_pim() {
            assert!(self.pim.len() < self.pim_capacity, "PIM queue overflow");
            self.pim.push_back(q);
        } else {
            assert!(self.mem.len() < self.mem_capacity, "MEM queue overflow");
            self.index.push(
                decoded.bank as usize,
                age,
                decoded.row,
                req.app,
                req.kind == RequestKind::MemWrite,
            );
            self.mem.push(q);
        }
        age
    }

    /// The MEM queue in arrival order (= age order).
    pub fn mem(&self) -> &[QueuedRequest] {
        &self.mem
    }

    /// Mutable access to the MEM queue (controller bookkeeping only).
    pub(crate) fn mem_mut(&mut self) -> &mut [QueuedRequest] {
        &mut self.mem
    }

    /// The PIM queue in arrival (and hence service) order.
    pub fn pim(&self) -> &VecDeque<QueuedRequest> {
        &self.pim
    }

    /// Marks `opened_row` on the PIM queue head.
    pub(crate) fn mark_pim_head_opened(&mut self) {
        if let Some(h) = self.pim.front_mut() {
            h.opened_row = true;
        }
    }

    /// Removes and returns the MEM request at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove_mem(&mut self, index: usize) -> QueuedRequest {
        let q = self.mem.remove(index);
        self.index.remove(q.decoded.bank as usize, q.age);
        q
    }

    /// Position of the MEM request of age `age` in [`McQueues::mem`]
    /// (binary search: the queue is age-sorted).
    ///
    /// # Panics
    ///
    /// Panics if no queued MEM request has that age.
    pub(crate) fn mem_position(&self, age: u64) -> usize {
        self.mem
            .binary_search_by_key(&age, |q| q.age)
            .expect("age names a queued MEM request")
    }

    /// Bitmask of banks (bit = bank) with at least one queued MEM request,
    /// maintained incrementally on enqueue/remove.
    pub fn mem_bank_mask(&self) -> u64 {
        debug_assert_eq!(
            self.index.pending(),
            self.mem.iter().fold(0u64, |m, q| m | 1 << q.decoded.bank)
        );
        self.index.pending()
    }

    /// The per-bank MEM candidate index.
    pub(crate) fn mem_index(&self) -> &MemIndex {
        &self.index
    }

    /// Marks `banks` (a bank bitmask) for recomputation in the candidate
    /// index, e.g. because their open rows changed.
    pub(crate) fn mark_mem_dirty(&mut self, banks: u64) {
        self.index.mark_dirty(banks);
    }

    /// Brings the candidate index up to date with `policy`'s classes and
    /// the open rows; call before [`McQueues::policy_view`] or a ranking.
    pub(crate) fn sync_mem_index(
        &mut self,
        policy: &dyn SchedulePolicy,
        open_rows: &[Option<u32>],
    ) {
        self.index.sync(policy, open_rows);
    }

    /// The policy's view of these queues, its bank masks read from the
    /// synced candidate index.
    pub(crate) fn policy_view<'a>(
        &'a self,
        now: Cycle,
        mode: Mode,
        open_rows: &'a [Option<u32>],
    ) -> PolicyView<'a> {
        let view = PolicyView {
            now,
            mode,
            mem: &self.mem,
            pim: &self.pim,
            open_rows,
            mem_pending: self.index.pending(),
            mem_hits: self.index.hits(),
        };
        debug_assert_eq!(
            view.mem_bank_masks(),
            PolicyView::new(now, mode, &self.mem, &self.pim, open_rows).mem_bank_masks(),
            "candidate index masks diverged from a queue scan"
        );
        view
    }

    /// Removes and returns the PIM queue head.
    pub fn pop_pim(&mut self) -> Option<QueuedRequest> {
        self.pim.pop_front()
    }

    /// Age of the oldest MEM request (the queue head: the queue is
    /// age-sorted).
    pub fn oldest_mem_age(&self) -> Option<u64> {
        self.mem.first().map(|q| q.age)
    }

    /// Age of the oldest PIM request (the queue head, since PIM is FCFS).
    pub fn oldest_pim_age(&self) -> Option<u64> {
        self.pim.front().map(|q| q.age)
    }

    /// Number of queued MEM requests.
    pub fn mem_len(&self) -> usize {
        self.mem.len()
    }

    /// Number of queued PIM requests.
    pub fn pim_len(&self) -> usize {
        self.pim.len()
    }

    /// MEM queue capacity.
    pub fn mem_capacity(&self) -> usize {
        self.mem_capacity
    }

    /// PIM queue capacity.
    pub fn pim_capacity(&self) -> usize {
        self.pim_capacity
    }

    /// `true` when both queues are empty.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty() && self.pim.is_empty()
    }

    /// The earliest cycle at or after `now` at which these queues hold
    /// work for the controller, or `None` while both are empty. Queues
    /// have no timers, so the answer is always `now` or never.
    pub fn next_activity_cycle(&self, now: Cycle) -> Option<Cycle> {
        (!self.is_empty()).then_some(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_types::{AppId, PhysAddr, PimCommand, PimOpKind, RequestId, RequestKind};

    fn mem_req(id: u64) -> (Request, DecodedAddr) {
        (
            Request::new(
                RequestId(id),
                AppId::GPU,
                RequestKind::MemRead,
                PhysAddr(id * 32),
                0,
                0,
            ),
            DecodedAddr::default(),
        )
    }

    fn pim_req(id: u64) -> (Request, DecodedAddr) {
        let cmd = PimCommand {
            op: PimOpKind::RfLoad,
            channel: 0,
            row: 1,
            col: 0,
            rf_entry: 0,
            block_start: true,
            block_id: id,
        };
        (
            Request::new(
                RequestId(id),
                AppId::PIM,
                RequestKind::Pim(cmd),
                PhysAddr(0),
                0,
                0,
            ),
            DecodedAddr::default(),
        )
    }

    #[test]
    fn ages_increase_across_both_queues() {
        let mut q = McQueues::new(4, 4);
        let (m0, d) = mem_req(0);
        let (p0, dp) = pim_req(1);
        let (m1, d1) = mem_req(2);
        assert_eq!(q.enqueue(m0, d, 0), 0);
        assert_eq!(q.enqueue(p0, dp, 1), 1);
        assert_eq!(q.enqueue(m1, d1, 2), 2);
        assert_eq!(q.oldest_mem_age(), Some(0));
        assert_eq!(q.oldest_pim_age(), Some(1));
    }

    #[test]
    fn capacity_is_enforced_per_queue() {
        let mut q = McQueues::new(1, 1);
        let (m, d) = mem_req(0);
        q.enqueue(m, d, 0);
        assert!(!q.can_accept(false));
        assert!(q.can_accept(true));
        let (p, dp) = pim_req(1);
        q.enqueue(p, dp, 0);
        assert!(!q.can_accept(true));
    }

    #[test]
    #[should_panic(expected = "MEM queue overflow")]
    fn overflow_panics() {
        let mut q = McQueues::new(1, 1);
        let (m, d) = mem_req(0);
        q.enqueue(m, d, 0);
        let (m2, d2) = mem_req(1);
        q.enqueue(m2, d2, 0);
    }

    #[test]
    fn pim_pops_in_fcfs_order() {
        let mut q = McQueues::new(2, 4);
        for i in 0..3 {
            let (p, d) = pim_req(i);
            q.enqueue(p, d, 0);
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop_pim())
            .map(|x| x.req.id.0)
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn capacities_and_emptiness_are_reported() {
        let mut q = McQueues::new(3, 5);
        assert_eq!(q.mem_capacity(), 3);
        assert_eq!(q.pim_capacity(), 5);
        assert!(q.is_empty());
        let (m, d) = mem_req(0);
        q.enqueue(m, d, 7);
        assert!(!q.is_empty());
        assert_eq!(q.mem()[0].arrived, 7);
        let r = q.remove_mem(0);
        assert!(!r.opened_row, "requests enter with no ACT history");
        assert!(q.is_empty());
    }

    #[test]
    fn remove_mem_by_index() {
        let mut q = McQueues::new(4, 1);
        for i in 0..3 {
            let (m, d) = mem_req(i);
            q.enqueue(m, d, 0);
        }
        let r = q.remove_mem(1);
        assert_eq!(r.req.id.0, 1);
        assert_eq!(q.mem_len(), 2);
        assert_eq!(q.oldest_mem_age(), Some(0));
    }
}
