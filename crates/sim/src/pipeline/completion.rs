//! The completion stage: routes PIM acks and delivered MEM replies back
//! to their issuing kernel slots, via the inflight ticket table.

use pimsim_types::{Cycle, Request, RequestId};

use super::memory::MemoryStage;
use super::{IssueStage, MountedKernel};

/// Tag bit distinguishing simulator-internal request IDs (L2 fills and
/// writebacks) from kernel request IDs held in the inflight table.
pub const INTERNAL_ID_BIT: u64 = 1 << 63;

/// Bit position of the channel lane inside an internal request ID:
/// `INTERNAL_ID_BIT | (channel << INTERNAL_LANE_SHIFT) | counter`.
///
/// Each partition mints internal IDs from its own counter (the lane), so
/// IDs stay globally unique (seven lane bits cover up to 128 channels)
/// and monotone *within* a partition. Within-partition monotonicity is
/// the property the controller's completion-heap tie-break depends on;
/// internal IDs never cross partitions, so no heap compares two lanes.
/// The golden fixtures depend on this order.
pub const INTERNAL_LANE_SHIFT: u32 = 56;

/// One slot of the [`InflightTable`].
#[derive(Debug, Clone, Copy)]
struct InflightEntry {
    /// Generation counter, bumped on every free so a recycled slot mints a
    /// fresh 64-bit ID (concurrently inflight IDs stay unique, and the
    /// completion heap's ID tie-break stays deterministic).
    gen: u32,
    /// `(kernel, slot)` owner while occupied.
    owner: Option<(u32, u32)>,
}

/// Free-list slab mapping in-flight kernel [`RequestId`]s to their
/// `(kernel, slot)` owners.
///
/// Replaces the seed's `HashMap<u64, (usize, usize)>`: lookups become a
/// bounds-checked index (the ID's low 32 bits are the slab slot, the high
/// bits its generation), inserts and removes are push/pop on a free list,
/// and the table's footprint stays at the high-water mark of concurrently
/// outstanding requests instead of rehashing on the hot path.
#[derive(Debug, Default)]
pub struct InflightTable {
    entries: Vec<InflightEntry>,
    free: Vec<u32>,
    len: usize,
}

impl InflightTable {
    /// Generations are 31-bit so a composed ID can never collide with
    /// [`INTERNAL_ID_BIT`].
    const GEN_MASK: u32 = 0x7fff_ffff;

    fn compose(gen: u32, slot: u32) -> u64 {
        (u64::from(gen & Self::GEN_MASK) << 32) | u64::from(slot)
    }

    /// The ID the next [`InflightTable::insert`] will return, with no
    /// state change. Letting the kernel model see the ID before the issue
    /// commits means a failed `try_issue` leaves the table — and the ID
    /// sequence — completely untouched, which the fast-forward path
    /// requires: an idle cycle must mutate nothing.
    pub fn peek_id(&self) -> RequestId {
        match self.free.last() {
            Some(&slot) => RequestId(Self::compose(self.entries[slot as usize].gen, slot)),
            None => RequestId(Self::compose(
                0,
                u32::try_from(self.entries.len()).expect("slab"),
            )),
        }
    }

    /// Claims the peeked slot for `(kernel, slot)` and returns its ID.
    pub fn insert(&mut self, kernel: usize, slot: usize) -> RequestId {
        let owner = Some((kernel as u32, slot as u32));
        self.len += 1;
        match self.free.pop() {
            Some(idx) => {
                let e = &mut self.entries[idx as usize];
                debug_assert!(e.owner.is_none(), "free-list slot occupied");
                e.owner = owner;
                RequestId(Self::compose(e.gen, idx))
            }
            None => {
                let idx = u32::try_from(self.entries.len()).expect("slab exceeds u32 slots");
                self.entries.push(InflightEntry { gen: 0, owner });
                RequestId(Self::compose(0, idx))
            }
        }
    }

    /// Releases `id` and returns its owner; `None` for internal IDs,
    /// stale generations, and already-freed slots.
    pub fn remove(&mut self, id: RequestId) -> Option<(usize, usize)> {
        if id.0 & INTERNAL_ID_BIT != 0 {
            return None;
        }
        let slot = (id.0 & 0xffff_ffff) as usize;
        let e = self.entries.get_mut(slot)?;
        if Self::compose(e.gen, slot as u32) != id.0 {
            return None;
        }
        let (k, s) = e.owner.take()?;
        e.gen = (e.gen + 1) & Self::GEN_MASK;
        self.free.push(slot as u32);
        self.len -= 1;
        Some((k as usize, s as usize))
    }

    /// Number of live entries: kernel requests in flight. O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no kernel request is in flight.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The sink of the pipeline: owns the [`InflightTable`] and the reusable
/// per-cycle scratch buffers, and retires completions back into kernel
/// slots (plus the issue stage's per-SM credit counters).
///
/// It runs twice per GPU cycle — once for the out-of-band PIM ack
/// schedules, once for replies the reply network delivered — with the reply
/// network's step in between.
#[derive(Debug, Default)]
pub struct CompletionStage {
    inflight: InflightTable,
    /// Reusable per-cycle buffers (PIM acks, delivered replies).
    ack_scratch: Vec<Request>,
    reply_scratch: Vec<Request>,
    /// Kernel completions retired (acks + replies).
    delivered: u64,
}

impl CompletionStage {
    /// An empty completion stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to the inflight ticket table (the issue stage mints
    /// IDs from it).
    pub fn inflight_mut(&mut self) -> &mut InflightTable {
        &mut self.inflight
    }

    /// Kernel completions retired so far (PIM acks + MEM replies).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Drains every controller's PIM ack schedule up to (and including)
    /// DRAM cycle `limit` and retires the acks (credit return,
    /// out-of-band — acks never cross the reply network). The limit is
    /// the last *serviced* DRAM tick: a schedule holds each ack from its
    /// op's issue, a burst plan's far ahead, and none may become
    /// observable before its analytic cycle.
    pub fn collect_acks(
        &mut self,
        memory: &mut MemoryStage,
        kernels: &mut [MountedKernel],
        issue: &mut IssueStage,
        now: Cycle,
        limit: Cycle,
    ) {
        let mut acks = std::mem::take(&mut self.ack_scratch);
        memory.drain_acks_into(limit, &mut acks);
        for ack in &acks {
            self.delivered += u64::from(Self::complete_one(
                &mut self.inflight,
                kernels,
                issue,
                ack,
                now,
                "pim-ack",
            ));
        }
        acks.clear();
        self.ack_scratch = acks;
    }

    /// Hands out the scratch buffer the reply network delivers into; pass
    /// it back through [`CompletionStage::finish_replies`].
    pub fn begin_replies(&mut self) -> Vec<Request> {
        std::mem::take(&mut self.reply_scratch)
    }

    /// Retires the replies [`super::ReplyNet`] delivered this cycle and
    /// reclaims the scratch buffer.
    pub fn finish_replies(
        &mut self,
        mut delivered: Vec<Request>,
        kernels: &mut [MountedKernel],
        issue: &mut IssueStage,
        now: Cycle,
    ) {
        for rep in &delivered {
            self.delivered += u64::from(Self::complete_one(
                &mut self.inflight,
                kernels,
                issue,
                rep,
                now,
                "reply",
            ));
        }
        delivered.clear();
        self.reply_scratch = delivered;
    }

    fn complete_one(
        inflight: &mut InflightTable,
        kernels: &mut [MountedKernel],
        issue: &mut IssueStage,
        req: &Request,
        now: Cycle,
        stage: &'static str,
    ) -> bool {
        let Some((k, slot)) = inflight.remove(req.id) else {
            // Fills and writebacks are simulator-internal: not in the
            // table. Anything else reaching this branch means a kernel
            // completion was lost or delivered twice.
            debug_assert!(
                req.id.0 & INTERNAL_ID_BIT != 0,
                "{stage} completion for unknown kernel request id {:#x} ({:?})",
                req.id.0,
                req.kind
            );
            return false;
        };
        let kernel = &mut kernels[k];
        kernel.model.on_complete(slot, req.id, now);
        if !kernel.is_pim {
            issue.credit_return(kernel.sms[slot]);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflight_peek_matches_insert_and_is_pure() {
        let mut t = InflightTable::default();
        let peeked = t.peek_id();
        assert_eq!(t.peek_id(), peeked, "peek must be side-effect-free");
        assert_eq!(t.len(), 0);
        let id = t.insert(3, 7);
        assert_eq!(id, peeked);
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(id), Some((3, 7)));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn inflight_recycled_slot_gets_fresh_generation() {
        let mut t = InflightTable::default();
        let a = t.insert(0, 0);
        assert_eq!(t.remove(a), Some((0, 0)));
        let b = t.insert(1, 2);
        assert_ne!(a, b, "recycled slot must mint a distinct ID");
        // The stale ID no longer resolves.
        assert_eq!(t.remove(a), None);
        assert_eq!(t.remove(b), Some((1, 2)));
    }

    #[test]
    fn inflight_rejects_internal_and_unknown_ids() {
        let mut t = InflightTable::default();
        let id = t.insert(0, 0);
        assert_eq!(t.remove(RequestId(INTERNAL_ID_BIT | id.0)), None);
        assert_eq!(t.remove(RequestId(id.0 + (1 << 32))), None, "wrong gen");
        assert_eq!(t.remove(RequestId(999)), None, "slot never allocated");
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(id), Some((0, 0)));
        assert_eq!(t.remove(id), None, "double free");
    }

    #[test]
    fn inflight_many_slots_stay_unique_while_outstanding() {
        let mut t = InflightTable::default();
        let ids: Vec<RequestId> = (0..64).map(|i| t.insert(i, i)).collect();
        let mut sorted: Vec<u64> = ids.iter().map(|id| id.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
        assert_eq!(t.len(), 64);
        // Free half, reinsert, and confirm no live ID is ever duplicated.
        for id in &ids[..32] {
            t.remove(*id).unwrap_or_else(|| {
                panic!(
                    "inflight table lost the owner of live request id {:#x} during bulk free",
                    id.0
                )
            });
        }
        let fresh: Vec<RequestId> = (0..32).map(|i| t.insert(100 + i, 0)).collect();
        for f in &fresh {
            assert!(!ids.contains(f), "generation bump must prevent reuse");
        }
        assert_eq!(t.len(), 64);
    }
}
