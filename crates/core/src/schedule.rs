//! The controller's PIM ack schedule: a time-ordered delivery queue.

use std::collections::{BinaryHeap, VecDeque};

use pimsim_types::Cycle;

use crate::controller::Completion;

/// Completions pushed with a future `at` become visible only once the
/// consumer's clock reaches it, in `(at, id)` order.
///
/// A producer that knows in closed form *when* each completion lands (a
/// burst plan) deposits them all at once, and the consumer drains
/// exactly the due prefix each cycle — so the observable hand-off order
/// is identical to an eager producer sending each one at its own tick.
#[derive(Debug, Clone, Default)]
pub(crate) struct Schedule {
    /// In-order arrivals: a push no earlier than the back by `(at, id)`
    /// appends here in O(1). A burst plan deposits its acks in that
    /// order, so the common path is a plain FIFO.
    sorted: VecDeque<Completion>,
    /// Out-of-order arrivals (`Completion`'s `Ord` pops the earliest
    /// first); pops merge with the sorted lane by `(at, id)`.
    heap: BinaryHeap<Completion>,
}

/// The delivery order: by cycle, then request ID, which is unique per
/// in-flight request.
fn key(c: &Completion) -> (Cycle, u64) {
    (c.at, c.req.id.0)
}

impl Schedule {
    /// Deposits `c`, due at `c.at`.
    pub fn push(&mut self, c: Completion) {
        match self.sorted.back() {
            Some(back) if key(&c) < key(back) => self.heap.push(c),
            _ => self.sorted.push_back(c),
        }
    }

    /// Whether the earliest entry lives in the sorted lane.
    fn head_is_sorted(&self) -> bool {
        match (self.sorted.front(), self.heap.peek()) {
            (Some(s), Some(h)) => key(s) < key(h),
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Pops the earliest completion due at or before `limit`, if any.
    pub fn pop_due(&mut self, limit: Cycle) -> Option<Completion> {
        if self.head_is_sorted() {
            if self.sorted.front()?.at <= limit {
                return self.sorted.pop_front();
            }
        } else if self.heap.peek()?.at <= limit {
            return self.heap.pop();
        }
        None
    }

    /// Whether the schedule holds nothing at all.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_types::{AppId, PhysAddr, Request, RequestId, RequestKind};

    fn ack(at: Cycle, id: u64) -> Completion {
        let req = Request::new(
            RequestId(id),
            AppId::PIM,
            RequestKind::MemRead,
            PhysAddr(0),
            0,
            0,
        );
        Completion { req, at }
    }

    /// The IDs of everything due at or before `limit`, earliest first.
    fn drain(s: &mut Schedule, limit: Cycle) -> Vec<u64> {
        std::iter::from_fn(|| s.pop_due(limit))
            .map(|c| c.req.id.0)
            .collect()
    }

    /// A deterministic xorshift64 stream (no external crates).
    fn rng(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    #[test]
    fn schedule_orders_by_cycle_then_id() {
        let mut s = Schedule::default();
        for (at, id) in [(20, 5), (10, 9), (10, 2), (15, 0)] {
            s.push(ack(at, id));
        }
        assert_eq!(drain(&mut s, 15), [2, 9, 0], "same-cycle ties break by ID");
        assert!(s.pop_due(19).is_none(), "the rest is still in the future");
        assert_eq!(drain(&mut s, 20), [5]);
        assert!(s.is_empty());
    }

    #[test]
    fn schedule_monotone_pushes_stay_off_the_heap_lane() {
        // A producer depositing in (at, id)-ascending order (a burst
        // plan's acks) must never touch the straggler heap, so every push
        // and pop is an O(1) deque operation.
        let mut next = rng(0x5eed_cafe);
        let mut s = Schedule::default();
        let (mut at, mut id) = (0, 0);
        let mut pushed = Vec::new();
        for _ in 0..500 {
            at += next() % 4; // nondecreasing cycles
            id += 1 + next() % 3; // strictly increasing IDs
            s.push(ack(at, id));
            pushed.push(id);
            assert!(s.heap.is_empty(), "monotone push leaked to heap");
        }
        assert_eq!(
            drain(&mut s, Cycle::MAX),
            pushed,
            "FIFO lane must keep deposit order"
        );
    }

    #[test]
    fn schedule_straggler_pushes_pop_in_global_time_order() {
        // Interleave in-order pushes with out-of-order stragglers; drained
        // one cycle at a time, pops must still come out (at, id)-ascending,
        // which is the order an eager producer sending each completion at
        // its own tick delivers.
        let mut next = rng(0xdead_beef);
        let mut s = Schedule::default();
        let mut pushed = Vec::new();
        let mut at = 50;
        for id in 0..400 {
            let when = if next().is_multiple_of(5) {
                at - 1 - next() % 40 // lands behind the back
            } else {
                at += next() % 3;
                at
            };
            s.push(ack(when, id));
            pushed.push((when, id));
        }
        assert!(!s.heap.is_empty(), "seed must produce stragglers");
        assert!(
            s.heap.len() < pushed.len(),
            "in-order prefix must stay on the FIFO lane"
        );
        pushed.sort_unstable();
        let mut got = Vec::new();
        let mut now = 0;
        while !s.is_empty() {
            got.extend(drain(&mut s, now));
            now += 1;
        }
        let expect: Vec<u64> = pushed.into_iter().map(|(_, id)| id).collect();
        assert_eq!(got, expect, "pops must merge lanes in (at, id) order");
    }
}
