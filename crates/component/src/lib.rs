//! Port primitives for the pipeline simulator.
//!
//! The paper's system is a pipeline of shared resources — SM issue, the
//! request crossbar, L2 slices, memory controllers, DRAM/PIM, the reply
//! crossbar. This crate provides the typed queues that link those
//! stages instead of hand-wired closures: [`Wire<T>`] and [`Port<T>`],
//! typed, credit-based bounded queues, replacing ad-hoc `VecDeque`
//! fields plus bespoke peek/pop/drain method pairs with one uniform
//! backpressure protocol.
//!
//! An empty wire has no state besides its (already counted) statistics,
//! so a scheduler may skip cycles in which a wire stays empty without
//! changing anything observable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

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
/// assert_eq!(p.total_pushed(), 1);
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
        w.try_send(1).unwrap();
        w.send(2);
        assert_eq!(w.try_send(3), Err(3));
        assert!(!w.can_accept());
        assert_eq!(w.stats().pushed, 2);
        assert_eq!(w.stats().refused, 1);
        assert_eq!(w.recv(), Some(1));
        assert!(w.can_accept());
        assert_eq!(w.peek(), Some(&2));
        assert_eq!(w.recv(), Some(2));
        assert_eq!(w.recv(), None);
        assert_eq!(w.stats().popped, 2, "empty recv must not count");
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
        assert_eq!(p.total_pushed(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.lanes().map(Wire::len).collect::<Vec<_>>(), vec![1, 2]);
    }
}
