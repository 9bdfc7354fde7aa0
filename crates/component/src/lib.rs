//! Port primitives for the pipeline simulator.
//!
//! The paper's system is a pipeline of shared resources — SM issue, the
//! request crossbar, L2 slices, memory controllers, DRAM/PIM, the reply
//! crossbar. This crate provides the typed queues that link those
//! stages instead of hand-wired closures:
//!
//! * [`Wire<T>`] / [`Port<T>`] — typed, credit-based bounded queues linking
//!   stages, replacing ad-hoc `VecDeque` fields plus bespoke
//!   peek/pop/drain method pairs with one uniform backpressure protocol;
//! * [`Schedule<T>`] — a time-ordered delivery queue whose items become
//!   visible only once the consumer's clock reaches their timestamp.
//!
//! An empty wire has no state besides its (already counted) statistics,
//! so a scheduler may skip cycles in which a wire stays empty without
//! changing anything observable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use pimsim_types::Cycle;

/// Counters every wire maintains; transfer stats used to be scattered over
/// bespoke `*_accepted` / `*_stalls` fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Items accepted into the wire.
    pub pushed: u64,
    /// Items taken out of the wire.
    pub popped: u64,
    /// Sends refused for lack of credit.
    pub refused: u64,
    /// Highest simultaneous occupancy observed.
    pub high_water: usize,
}

/// A typed, credit-based FIFO linking two components.
///
/// A wire has `capacity` credits; each buffered item holds one credit
/// until the consumer pops it. Producers must check [`Wire::can_accept`]
/// (or use [`Wire::try_send`]) — backpressure is part of the type, not a
/// convention re-implemented at every hand-off.
///
/// # Example
///
/// ```
/// use pimsim_component::Wire;
///
/// let mut w: Wire<u32> = Wire::bounded(2);
/// w.try_send(7).unwrap();
/// w.try_send(8).unwrap();
/// assert_eq!(w.try_send(9), Err(9), "no credit left");
/// assert_eq!(w.peek(), Some(&7));
/// assert_eq!(w.recv(), Some(7));
/// assert!(w.can_accept());
/// ```
#[derive(Debug, Clone)]
pub struct Wire<T> {
    q: VecDeque<T>,
    capacity: usize,
    stats: WireStats,
}

impl<T> Wire<T> {
    /// A wire with `capacity` credits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-credit wire can never carry
    /// anything, which is always a configuration bug.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "wire capacity must be nonzero");
        Wire {
            q: VecDeque::new(),
            capacity,
            stats: WireStats::default(),
        }
    }

    /// A wire with effectively unlimited credit (for out-of-band paths
    /// such as PIM ack credit returns, whose consumers drain every cycle).
    pub fn unbounded() -> Self {
        Wire {
            q: VecDeque::new(),
            capacity: usize::MAX,
            stats: WireStats::default(),
        }
    }

    /// Total credits (buffer slots).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Remaining credits.
    pub fn credits(&self) -> usize {
        self.capacity - self.q.len()
    }

    /// Whether a send would be accepted right now.
    pub fn can_accept(&self) -> bool {
        self.q.len() < self.capacity
    }

    /// Sends `item`, returning it back if the wire is out of credit.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the wire is full (the refusal is counted
    /// in [`WireStats::refused`]).
    pub fn try_send(&mut self, item: T) -> Result<(), T> {
        if self.q.len() >= self.capacity {
            self.stats.refused += 1;
            return Err(item);
        }
        self.q.push_back(item);
        self.stats.pushed += 1;
        self.stats.high_water = self.stats.high_water.max(self.q.len());
        Ok(())
    }

    /// Sends `item` on a wire whose credit the caller already checked.
    ///
    /// # Panics
    ///
    /// Panics on overflow — use [`Wire::try_send`] when refusal is a
    /// legitimate outcome.
    pub fn send(&mut self, item: T) {
        assert!(self.can_accept(), "wire overflow: send without credit");
        self.q.push_back(item);
        self.stats.pushed += 1;
        self.stats.high_water = self.stats.high_water.max(self.q.len());
    }

    /// The item the next [`Wire::recv`] would return.
    pub fn peek(&self) -> Option<&T> {
        self.q.front()
    }

    /// Pops the head item, releasing its credit.
    pub fn recv(&mut self) -> Option<T> {
        let item = self.q.pop_front();
        if item.is_some() {
            self.stats.popped += 1;
        }
        item
    }

    /// Appends every buffered item to `out` and releases all credits —
    /// the allocation-free bulk form of [`Wire::recv`] for per-cycle
    /// consumers with a reusable scratch vector. Free when the wire is
    /// empty, so per-cycle pollers pay nothing on idle wires.
    pub fn drain_into(&mut self, out: &mut Vec<T>) {
        if self.q.is_empty() {
            return;
        }
        self.stats.popped += self.q.len() as u64;
        out.extend(self.q.drain(..));
    }

    /// Buffered items.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the wire holds nothing.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Iterates over buffered items, head first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.q.iter()
    }

    /// Transfer counters.
    pub fn stats(&self) -> WireStats {
        self.stats
    }
}

/// One timestamped entry of a [`Schedule`].
///
/// Ordering is by `(at, key)` ascending — `key` is a deterministic
/// tiebreak (the paper pipeline uses request IDs) so two entries due the
/// same cycle always pop in the same order regardless of push order, and
/// `T` itself never needs `Ord`.
#[derive(Debug, Clone)]
struct ScheduleEntry<T> {
    at: Cycle,
    key: u64,
    item: T,
}

impl<T> PartialEq for ScheduleEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}

impl<T> Eq for ScheduleEntry<T> {}

impl<T> PartialOrd for ScheduleEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for ScheduleEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so `BinaryHeap` (a max-heap) pops the earliest
        // `(at, key)` first.
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// A time-ordered delivery queue: items pushed with a future timestamp
/// become visible only once the consumer's clock reaches it.
///
/// This is the production-side dual of [`Wire`]: a producer that knows in
/// closed form *when* each item matures (e.g. a burst plan's completion
/// cycles) deposits them all at retire time, and the consumer drains
/// exactly the due prefix each cycle — so the observable hand-off order
/// is identical to an eager producer sending each item at its own tick.
///
/// # Example
///
/// ```
/// use pimsim_component::Schedule;
///
/// let mut s: Schedule<&str> = Schedule::new();
/// s.push(12, 1, "late");
/// s.push(10, 7, "early");
/// assert_eq!(s.next_at(), Some(10));
/// assert!(!s.has_due(9));
/// assert_eq!(s.pop_due(10), Some("early"));
/// assert_eq!(s.pop_due(10), None, "the rest is still in the future");
/// let mut out = Vec::new();
/// s.drain_due_into(20, &mut out);
/// assert_eq!(out, vec!["late"]);
/// assert!(s.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Schedule<T> {
    /// In-order arrivals: a push whose `(at, key)` is no earlier than the
    /// back's appends here in O(1). Producers that deposit whole batches
    /// in maturity order (a controller's retire-time ack batches) never
    /// leave this lane, so the common path is a plain FIFO.
    sorted: VecDeque<ScheduleEntry<T>>,
    /// Out-of-order arrivals; pops merge with the sorted lane by
    /// `(at, key)`.
    heap: BinaryHeap<ScheduleEntry<T>>,
}

impl<T> Default for Schedule<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Schedule<T> {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule {
            sorted: VecDeque::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Deposits `item` to mature at cycle `at`. `key` breaks ties among
    /// items due the same cycle (lower keys pop first) and must be unique
    /// per in-flight item for deterministic order.
    pub fn push(&mut self, at: Cycle, key: u64, item: T) {
        let entry = ScheduleEntry { at, key, item };
        match self.sorted.back() {
            Some(back) if (at, key) < (back.at, back.key) => self.heap.push(entry),
            _ => self.sorted.push_back(entry),
        }
    }

    /// Whether the earliest entry lives in the sorted lane (ties cannot
    /// happen: keys are unique per in-flight item).
    fn head_is_sorted(&self) -> bool {
        match (self.sorted.front(), self.heap.peek()) {
            (Some(s), Some(h)) => (s.at, s.key) < (h.at, h.key),
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// The earliest entry across both lanes, by `(at, key)`.
    fn peek_entry(&self) -> Option<&ScheduleEntry<T>> {
        if self.head_is_sorted() {
            self.sorted.front()
        } else {
            self.heap.peek()
        }
    }

    /// Pops the earliest item due at or before `limit`, if any.
    pub fn pop_due(&mut self, limit: Cycle) -> Option<T> {
        self.peek_entry().filter(|e| e.at <= limit)?;
        if self.head_is_sorted() {
            self.sorted.pop_front().map(|e| e.item)
        } else {
            self.heap.pop().map(|e| e.item)
        }
    }

    /// Appends every item due at or before `limit` to `out`, earliest
    /// `(at, key)` first. Free when nothing is due.
    pub fn drain_due_into(&mut self, limit: Cycle, out: &mut Vec<T>) {
        while let Some(item) = self.pop_due(limit) {
            out.push(item);
        }
    }

    /// Whether any item is due at or before `limit` — the shared-borrow
    /// pre-check consumers use before taking a mutable drain borrow.
    pub fn has_due(&self, limit: Cycle) -> bool {
        self.peek_entry().is_some_and(|e| e.at <= limit)
    }

    /// The maturity cycle of the earliest entry, if any.
    pub fn next_at(&self) -> Option<Cycle> {
        self.peek_entry().map(|e| e.at)
    }

    /// Entries held (due or future).
    pub fn len(&self) -> usize {
        self.sorted.len() + self.heap.len()
    }

    /// Whether the schedule holds nothing at all.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty() && self.heap.is_empty()
    }

    /// Entries parked in the out-of-order (heap) lane. Zero for any
    /// producer that deposits in `(at, key)`-ascending order — the
    /// property the ack-batch path relies on to keep the common case a
    /// plain FIFO append.
    pub fn straggler_len(&self) -> usize {
        self.heap.len()
    }
}

/// A bundle of parallel [`Wire`]s — one lane per virtual channel.
///
/// The staging queues of the paper's memory partitions are per-VC FIFOs
/// sharing one physical buffer (capacity is split evenly across lanes,
/// matching Section V-A's equal-total-buffering comparison). A `Port`
/// models exactly that: `lane(vc)` is the wire for one request class.
///
/// # Example
///
/// ```
/// use pimsim_component::Port;
///
/// let mut p: Port<u64> = Port::new(2, 8); // two VCs, 4 credits each
/// assert_eq!(p.lane(0).capacity(), 4);
/// p.lane_mut(1).try_send(42).unwrap();
/// assert_eq!(p.total_len(), 1);
/// assert!(!p.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Port<T> {
    lanes: Vec<Wire<T>>,
}

impl<T> Port<T> {
    /// A port with `lanes` virtual channels splitting `total_capacity`
    /// credits evenly.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or the split leaves some lane without a
    /// credit.
    pub fn new(lanes: usize, total_capacity: usize) -> Self {
        assert!(lanes > 0, "a port needs at least one lane");
        let per_lane = total_capacity / lanes;
        assert!(per_lane > 0, "total_capacity must cover every lane");
        Port {
            lanes: (0..lanes).map(|_| Wire::bounded(per_lane)).collect(),
        }
    }

    /// Number of lanes (virtual channels).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The wire for virtual channel `vc`.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn lane(&self, vc: usize) -> &Wire<T> {
        &self.lanes[vc]
    }

    /// Mutable access to the wire for virtual channel `vc`.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn lane_mut(&mut self, vc: usize) -> &mut Wire<T> {
        &mut self.lanes[vc]
    }

    /// Iterates over lanes in VC order.
    pub fn lanes(&self) -> impl Iterator<Item = &Wire<T>> {
        self.lanes.iter()
    }

    /// Total buffered items across lanes.
    pub fn total_len(&self) -> usize {
        self.lanes.iter().map(Wire::len).sum()
    }

    /// Total items ever accepted across lanes.
    pub fn total_pushed(&self) -> u64 {
        self.lanes.iter().map(|l| l.stats().pushed).sum()
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(Wire::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_backpressure_and_stats() {
        let mut w: Wire<u8> = Wire::bounded(2);
        assert_eq!(w.credits(), 2);
        w.try_send(1).unwrap();
        w.send(2);
        assert_eq!(w.try_send(3), Err(3));
        assert!(!w.can_accept());
        assert_eq!(w.stats().pushed, 2);
        assert_eq!(w.stats().refused, 1);
        assert_eq!(w.stats().high_water, 2);
        assert_eq!(w.recv(), Some(1));
        assert_eq!(w.credits(), 1);
        assert_eq!(w.peek(), Some(&2));
        assert_eq!(w.recv(), Some(2));
        assert_eq!(w.recv(), None);
        assert_eq!(w.stats().popped, 2, "empty recv must not count");
    }

    #[test]
    fn wire_drain_into_moves_everything() {
        let mut w: Wire<u32> = Wire::unbounded();
        for i in 0..5 {
            w.try_send(i).unwrap();
        }
        let mut out = vec![99];
        w.drain_into(&mut out);
        assert_eq!(out, vec![99, 0, 1, 2, 3, 4]);
        assert!(w.is_empty());
        assert_eq!(w.stats().popped, 5);
    }

    #[test]
    #[should_panic(expected = "wire overflow")]
    fn wire_send_without_credit_panics() {
        let mut w: Wire<u8> = Wire::bounded(1);
        w.send(1);
        w.send(2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_wire_rejected() {
        let _ = Wire::<u8>::bounded(0);
    }

    #[test]
    fn port_splits_capacity_evenly() {
        let p: Port<u8> = Port::new(2, 9); // 4 per lane, remainder dropped
        assert_eq!(p.lane(0).capacity(), 4);
        assert_eq!(p.lane(1).capacity(), 4);
        assert_eq!(p.lane_count(), 2);
    }

    #[test]
    #[should_panic(expected = "cover every lane")]
    fn port_rejects_starved_lanes() {
        let _ = Port::<u8>::new(4, 3);
    }

    #[test]
    fn port_aggregates_over_lanes() {
        let mut p: Port<u8> = Port::new(2, 8);
        p.lane_mut(0).try_send(1).unwrap();
        p.lane_mut(1).try_send(2).unwrap();
        p.lane_mut(1).try_send(3).unwrap();
        assert_eq!(p.total_len(), 3);
        assert_eq!(p.total_pushed(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.lanes().map(Wire::len).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn schedule_orders_by_cycle_then_key() {
        let mut s: Schedule<u32> = Schedule::new();
        s.push(20, 5, 105);
        s.push(10, 9, 209);
        s.push(10, 2, 202);
        s.push(15, 0, 300);
        assert_eq!(s.len(), 4);
        assert_eq!(s.next_at(), Some(10));
        let mut out = Vec::new();
        s.drain_due_into(15, &mut out);
        assert_eq!(out, vec![202, 209, 300], "same-cycle ties break by key");
        assert_eq!(s.next_at(), Some(20));
        assert_eq!(s.pop_due(19), None);
        assert_eq!(s.pop_due(20), Some(105));
        assert!(s.is_empty());
    }

    #[test]
    fn schedule_has_due_tracks_the_head() {
        let mut s: Schedule<char> = Schedule::new();
        assert!(!s.has_due(u64::MAX));
        s.push(7, 0, 'a');
        assert!(!s.has_due(6));
        assert!(s.has_due(7));
        assert_eq!(s.pop_due(7), Some('a'));
        assert!(!s.has_due(u64::MAX));
    }

    #[test]
    fn schedule_matches_eager_wire_order() {
        // The equivalence the ack path relies on: delivering items from a
        // schedule, draining the due prefix per tick, reproduces the exact
        // order an eager producer gets by sending each item at its own
        // tick (globally (at, key)-ascending).
        let deliveries = [(3u64, 10u64), (1, 4), (3, 2), (1, 7), (2, 1)];
        let mut eager: Vec<(Cycle, u64)> = deliveries.to_vec();
        eager.sort_unstable();
        let mut s: Schedule<u64> = Schedule::new();
        for &(at, key) in &deliveries {
            s.push(at, key, key);
        }
        let mut got = Vec::new();
        for now in 0..=3 {
            while let Some(k) = s.pop_due(now) {
                got.push((now, k));
            }
        }
        let eager: Vec<u64> = eager.into_iter().map(|(_, k)| k).collect();
        let got: Vec<u64> = got.into_iter().map(|(_, k)| k).collect();
        assert_eq!(got, eager);
    }

    #[test]
    fn schedule_monotone_pushes_stay_off_the_heap_lane() {
        // Seeded property test for the two-lane structure: a producer
        // depositing in (at, key)-ascending order (an ack batch) must
        // never touch the straggler heap, so every push and pop is an
        // O(1) deque operation.
        let mut seed = 0x5eed_cafe_u64;
        let mut rng = move || {
            // xorshift64: deterministic, no external crates.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut s: Schedule<u64> = Schedule::new();
        let (mut at, mut key) = (0u64, 0u64);
        let mut pushed = Vec::new();
        for _ in 0..500 {
            at += rng() % 4; // nondecreasing cycles
            key += 1 + rng() % 3; // strictly increasing tie-break keys
            s.push(at, key, key);
            pushed.push((at, key));
            assert_eq!(s.straggler_len(), 0, "monotone push leaked to heap");
        }
        let mut out = Vec::new();
        s.drain_due_into(u64::MAX, &mut out);
        let expect: Vec<u64> = pushed.iter().map(|&(_, k)| k).collect();
        assert_eq!(out, expect, "FIFO lane must preserve deposit order");
    }

    #[test]
    fn schedule_straggler_pushes_pop_in_global_time_order() {
        // Interleave in-order batches with out-of-order stragglers and
        // check pops still come out (at, key)-ascending, with stragglers
        // confined to the heap lane until popped.
        let mut seed = 0xdead_beef_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut s: Schedule<u64> = Schedule::new();
        let mut pushed = Vec::new();
        let mut at = 50u64;
        for key in 0..400u64 {
            let straggle = rng() % 5 == 0;
            let when = if straggle {
                at.saturating_sub(1 + rng() % 40) // lands behind the back
            } else {
                at += rng() % 3;
                at
            };
            s.push(when, key, key);
            pushed.push((when, key));
        }
        assert!(s.straggler_len() > 0, "seed must produce stragglers");
        assert!(
            s.straggler_len() < s.len(),
            "in-order prefix must stay on the FIFO lane"
        );
        pushed.sort_unstable();
        let mut got = Vec::new();
        let mut now = 0;
        while !s.is_empty() {
            while let Some(k) = s.pop_due(now) {
                got.push(k);
            }
            now += 1;
        }
        let expect: Vec<u64> = pushed.into_iter().map(|(_, k)| k).collect();
        assert_eq!(got, expect, "pops must merge lanes in (at, key) order");
    }
}
