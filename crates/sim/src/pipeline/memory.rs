//! The memory stage: every per-channel partition (L2 slice + memory
//! controller + DRAM/PIM channel), stepped serially on the simulation's
//! own thread.
//!
//! # The active set
//!
//! The stage keeps one `ActiveSet` of the partitions that may hold
//! work, and every per-cycle loop — stepping, deferral checks, catch-up,
//! the fast-forward probe, ack drains and the reply network's wire scan
//! — walks it instead of every channel. A partition *leaves* when a visit
//! that stepped or replayed it leaves it [`Partition::is_idle`] at the
//! stage's DRAM service point; an idle partition is a fixed point of
//! stepping (empty ports, quiet L2, idle controller), so skipping its
//! visits is exact. It *re-enters* only where work can arrive:
//! [`MemoryStage::partition_mut`] (the crossbar's eject hand-off, unit
//! tests). Draining (acks, replies) only removes work, so those paths
//! never admit a partition.

use pimsim_core::PolicyKind;
use pimsim_dram::AddressMapper;
use pimsim_types::{Cycle, Request, SystemConfig};

use crate::partition::{Horizon, Partition};

/// The channels whose partitions may hold work, as a bitset. 128 bits
/// cover every legal channel index (the partitions' internal request-ID
/// lanes impose the same bound).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ActiveSet(u128);

impl ActiveSet {
    fn insert(&mut self, c: usize) {
        self.0 |= 1 << c;
    }

    fn remove(&mut self, c: usize) {
        self.0 &= !(1 << c);
    }

    /// Whether channel `c` is in the set.
    pub fn contains(self, c: usize) -> bool {
        self.0 >> c & 1 != 0
    }

    /// The channels in ascending order. The walk is over a snapshot
    /// (`self` is a copy), so a loop may mutate the stage — the set
    /// included — as it goes.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                c
            })
        })
    }
}

/// All memory partitions, stepped together in both clock domains: the L2
/// front halves on the GPU clock, the controllers and DRAM channels on
/// the DRAM clock.
#[derive(Debug)]
pub struct MemoryStage {
    partitions: Vec<Partition>,
    /// The partitions that may hold work (see the module docs). A
    /// partition outside the set is idle, and every loop skips it.
    active: ActiveSet,
    /// Whether any partition's reply wire is non-empty — exact at all
    /// times. Replies are only *created* inside
    /// [`MemoryStage::step_cycle_all`] (the L2 front half releases fill
    /// waiters and drains hit delays there; deferred visits never hold
    /// MEM work, so replaying them creates none), which sets the flag,
    /// and only *removed* by the reply network, which writes back what
    /// it left behind ([`MemoryStage::set_replies_pending`]). The reply
    /// network's event-driven skip and the fast-forward probe read it:
    /// while `false` and the reply crossbar is empty, the whole
    /// reply/completion tail of the cycle provably has nothing to move.
    replies_pending: bool,
    /// The next DRAM tick no stage visit (live or recorded) covers yet.
    /// Normally the clock coupler's next tick; while the production side
    /// is deferred (DESIGN.md §4k) individual *partitions* lag behind it
    /// and catch up — exactly, via
    /// [`crate::partition::Partition::replay_spans`] — before anything
    /// can observe their state.
    dram_upto: Cycle,
    /// The address decoding every partition reads, also lent to the
    /// issue stage ([`MemoryStage::mapper`]).
    mapper: AddressMapper,
    /// Stage visits skipped by deferral, in order: `(gpu_cycle,
    /// first_dram_tick, dram_ticks)` exactly as [`MemoryStage::step_cycle_all`]
    /// would have received them. Replayed per partition on demand; the
    /// prefix every active partition has replayed is dropped (see
    /// `compact_deferred`), so the list holds at most the largest lag.
    deferred: Vec<(Cycle, Cycle, u64)>,
    /// Per-partition index of the first entry in `deferred` not yet
    /// replayed on that partition. `synced[c] == deferred.len()` means
    /// partition `c` is current.
    synced: Vec<usize>,
    /// Per-partition cached deferral bound, valid while `!stale[c]`:
    /// every stage visit whose window ends at or before `horizon[c]` is
    /// provably reproducible later on partition `c`. `0` means the
    /// partition needs live service. Invalidated per partition by
    /// anything that can change its horizon: stepping, replay, or a
    /// [`MemoryStage::partition_mut`] access (the crossbar eject path).
    horizon: Vec<Cycle>,
    /// Which entries of `horizon` need recomputation.
    stale: Vec<bool>,
    /// Per-partition replay batches: one per catch-up that replayed at
    /// least one deferred stage visit on an active partition.
    replay_batches: u64,
    /// Deferred stage visits replayed, summed over all batches. Divided
    /// by `replay_batches` this is the mean deferral window (DESIGN.md
    /// §4k).
    replayed_visits: u64,
}

impl MemoryStage {
    /// Builds one partition per DRAM channel, each with its own policy
    /// instance, and the address mapper for `cfg`'s DRAM backend.
    pub fn new(cfg: &SystemConfig, policy: PolicyKind) -> Self {
        let channels = cfg.dram.channels;
        MemoryStage {
            partitions: (0..channels)
                .map(|c| Partition::new(c, cfg, policy.build()))
                .collect(),
            active: ActiveSet::default(),
            replies_pending: false,
            dram_upto: 0,
            // Decoder construction goes through the backend registry: the
            // pipeline stages service whatever substrate
            // `cfg.dram_backend` names without matching on the kind
            // themselves.
            mapper: pimsim_dram::backend::mapper_for(cfg),
            deferred: Vec::new(),
            synced: vec![0; channels],
            horizon: vec![0; channels],
            stale: vec![true; channels],
            replay_batches: 0,
            replayed_visits: 0,
        }
    }

    /// The address decoding the partitions use, for the issue stage's
    /// channel routing.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// The partition serving channel `c` (shared; leaves the active set
    /// as it is).
    pub fn get(&self, c: usize) -> &Partition {
        &self.partitions[c]
    }

    /// Iterates all partitions (for stats).
    pub fn iter(&self) -> impl Iterator<Item = &Partition> {
        self.partitions.iter()
    }

    /// Mutable access to the partition serving channel `c`. First replays
    /// any stage visits deferral skipped on this partition — so callers
    /// (the crossbar eject path, test drivers) always observe the exact
    /// live state, and an arrival can never land *inside* a deferred
    /// span: the partition is caught up before the new work is handed
    /// over. Also admits the partition to the active set and marks its
    /// cached bulk horizon stale, since the caller may hand it work or
    /// mutate state the horizon was derived from.
    pub fn partition_mut(&mut self, c: usize) -> &mut Partition {
        self.catch_up_partition(c);
        self.active.insert(c);
        self.stale[c] = true;
        &mut self.partitions[c]
    }

    /// Removes channel `c` from the active set if the visit that just
    /// stepped or replayed it left it idle at the service point.
    fn leave_if_idle(&mut self, c: usize) {
        if self.get(c).is_idle(self.dram_upto) {
            self.active.remove(c);
        }
    }

    /// Replays partition `c`'s share of the deferred stage visits, if
    /// any. Cheap no-op when the partition is current.
    fn catch_up_partition(&mut self, c: usize) {
        let n = self.deferred.len();
        let start = self.synced[c];
        if start == n {
            return;
        }
        self.synced[c] = n;
        self.stale[c] = true;
        if !self.active.contains(c) {
            // An inactive partition holds no work anywhere; every
            // deferred visit is a provable no-op on it.
            return;
        }
        self.replay_batches += 1;
        self.replayed_visits += (n - start) as u64;
        self.partitions[c].replay_spans(&self.deferred[start..n], &self.mapper);
        self.leave_if_idle(c);
    }

    /// Cumulative replay counters: `(replay_batches, replayed_visits)`.
    pub fn replay_counters(&self) -> (u64, u64) {
        (self.replay_batches, self.replayed_visits)
    }

    /// Drops the prefix of the deferred history that every active
    /// partition has already replayed, so the list holds only the
    /// largest remaining lag. Inactive partitions have nothing to replay
    /// (`partition_mut` syncs one before admitting it), so their sync
    /// points do not hold history back.
    fn compact_deferred(&mut self) {
        let n = self.deferred.len();
        let done = self
            .active
            .iter()
            .map(|c| self.synced[c])
            .min()
            .unwrap_or(n);
        if done == 0 {
            return;
        }
        self.deferred.drain(..done);
        for s in &mut self.synced {
            *s = s.saturating_sub(done);
        }
    }

    /// Number of channels (= partitions).
    pub fn channel_count(&self) -> usize {
        self.partitions.len()
    }

    /// The channels whose partitions may hold work, ascending. Every
    /// partition outside the set is idle.
    pub(crate) fn active(&self) -> ActiveSet {
        self.active
    }

    /// Whether any partition's reply wire is non-empty. Exact and O(1) —
    /// the reply network's skip gate and part of the fast-forward probe.
    pub fn replies_pending(&self) -> bool {
        debug_assert_eq!(
            self.replies_pending,
            self.iter().any(|p| !p.reply().is_empty()),
            "reply summary out of sync with the wires"
        );
        self.replies_pending
    }

    /// Records whether the reply network left any reply in the wires
    /// after its drain — the only place replies leave them.
    pub(crate) fn set_replies_pending(&mut self, pending: bool) {
        self.replies_pending = pending;
    }

    /// Drains every partition's due PIM acks (completion cycle `<=
    /// limit`) into `out`. Acks deposited at retire time with a future
    /// timestamp stay invisible until DRAM time reaches them, so
    /// delivery order and cycle match the eager per-tick path exactly.
    ///
    /// Ack production is *pull-driven* (DESIGN.md §4k): a partition
    /// lagging behind the stage may not yet have produced acks that are
    /// already due, so a lagging partition replays its share of the
    /// deferred visits here, immediately before the read. The replay
    /// runs the exact live schedule, so the wires hold precisely the
    /// acks the eager path would already hold and the drained set is
    /// identical. This makes delivery demand — not per-issue completion
    /// latency — the cadence at which busy partitions sync.
    ///
    /// The pull is skipped when no *unproduced* ack can be due yet:
    /// every ack an unreplayed visit can produce comes from an issue at
    /// or after the partition's first unreplayed DRAM tick `f`, and
    /// plan-covered issues deposited their acks at retire time (already
    /// harvested into the wire at the last sync), so the earliest
    /// unproduced due is bounded below by
    /// [`pimsim_core::MemoryController::arrival_bound`]`(f)`. When that
    /// bound clears `limit`, everything due is already in the wire and
    /// the lag keeps accumulating — this is what keeps consecutive
    /// delivery cycles (a throttled kernel draining its credit cap) from
    /// shattering windows into single-visit replays.
    pub fn drain_acks_into(&mut self, limit: Cycle, out: &mut Vec<Request>) {
        let n = self.deferred.len();
        for c in self.active.iter() {
            let start = self.synced[c];
            if start == n {
                continue;
            }
            let f = self.deferred[start].1;
            if self.get(c).mc.arrival_bound(f) > limit {
                continue;
            }
            self.catch_up_partition(c);
        }
        self.compact_deferred();
        // Acks pending keep a partition out of idle, so the active set
        // covers every non-empty schedule.
        for c in self.active.iter() {
            let p = &mut self.partitions[c];
            if p.acks().has_due(limit) {
                p.acks_mut().drain_due_into(limit, out);
            }
        }
    }

    /// One full GPU cycle of memory work: the L2 front halves at GPU
    /// cycle `now`, then `ticks` DRAM ticks starting at `first_dram`.
    ///
    /// The loop steps partition-major: each partition runs its whole
    /// cycle (L2 step plus its DRAM ticks) before the next partition
    /// starts. Partitions share nothing within the stage, so the
    /// interleaving cannot matter: per-partition state, and therefore
    /// every downstream observable, is bit-identical to the historical
    /// tick-major loop.
    pub fn step_cycle_all(&mut self, now: Cycle, first_dram: Cycle, ticks: u64) {
        // Stage visits skipped by deferral are replayed first, inside the
        // same per-partition visit: replays run the exact live code
        // paths, so replay-then-step is exactly the eager order.
        debug_assert!(self.dram_upto <= first_dram, "DRAM service point ran ahead");
        self.dram_upto = first_dram + ticks;
        // Only active partitions are visited; each leaves the set if its
        // visit ends idle. Inactive partitions hold no replies, so the
        // visited ones decide the reply summary.
        let n = self.deferred.len();
        let mut replies = false;
        for c in self.active.iter() {
            let start = self.synced[c];
            self.stale[c] = true;
            if start < n {
                self.replay_batches += 1;
                self.replayed_visits += (n - start) as u64;
            }
            let p = &mut self.partitions[c];
            p.replay_spans(&self.deferred[start..n], &self.mapper);
            p.step_l2(now);
            p.step_dram_span(first_dram, ticks, &self.mapper);
            replies |= !p.reply().is_empty();
            self.leave_if_idle(c);
        }
        self.deferred.clear();
        self.synced.fill(0);
        self.replies_pending = replies;
    }

    /// Replays the DRAM-tick span `[first, first + ticks)` on every
    /// active partition, advancing each controller's stats integrals
    /// exactly as per-tick stepping would have.
    ///
    /// The fast-forward path calls this after jumping the clocks up to
    /// (but never past) the DRAM bound of `MemoryStage::horizon`: no
    /// partition answered a horizon inside the span, which it only does
    /// with its ports and wires empty and its controller idle or inside
    /// a stall window covering the span — so the per-partition replay is
    /// the O(1) [`pimsim_core::MemoryController::quiet_replay_span`]
    /// path, or nothing for an idle controller
    /// ([`crate::partition::Partition::step_dram_span`] falls back to
    /// exact per-tick stepping where the controller goes idle
    /// mid-span). The GPU-clock L2 steps of the span are no-ops: the
    /// jump also stops at the L2 release bound.
    pub fn quiet_replay_all(&mut self, first: Cycle, ticks: u64) {
        if ticks == 0 {
            return;
        }
        debug_assert!(
            self.dram_upto == first && self.deferred.is_empty(),
            "bulk replay must start at the service point (catch up first)"
        );
        self.dram_upto = first + ticks;
        for c in self.active.iter() {
            self.stale[c] = true;
            self.partitions[c].step_dram_span(first, ticks, &self.mapper);
            self.leave_if_idle(c);
        }
    }

    /// Records one stage visit — GPU cycle `now` with DRAM ticks
    /// `[first_dram, first_dram + ticks)` — as deferred instead of
    /// stepping it. Only legal right after
    /// [`MemoryStage::can_defer_through`]`(first_dram + ticks)` returned
    /// `true`: every partition's cached horizon covers the window, so
    /// the visit is replayable with bit-identical state and nothing
    /// observable (a reply, an ack falling due, a fill) can surface
    /// inside it. Costs one walk of the active set, which also drops the
    /// history every partition has replayed — this is the production
    /// side's event-driven payoff (DESIGN.md §4k).
    pub fn defer_cycle(&mut self, now: Cycle, first_dram: Cycle, ticks: u64) {
        debug_assert!(
            self.dram_upto == first_dram,
            "deferred visit must extend the recorded history"
        );
        self.compact_deferred();
        self.deferred.push((now, first_dram, ticks));
        self.dram_upto = first_dram + ticks;
    }

    /// Whether the stage visit ending at DRAM tick `end` — its GPU-cycle
    /// L2 front halves included — can be deferred and replayed later with
    /// bit-identical state and no observable surfacing inside the window
    /// (DESIGN.md §4k): every active partition must report a bulk
    /// horizon at or beyond `end`. Horizons are cached per partition
    /// until something can change them (stepping, replay, or a crossbar
    /// eject through [`MemoryStage::partition_mut`]); a deferral itself
    /// mutates nothing, so back-to-back quiet cycles re-check against
    /// cached values only.
    pub fn can_defer_through(&mut self, end: Cycle) -> bool {
        for c in self.active.iter() {
            if self.stale[c] {
                // The horizon is taken from this partition's own synced
                // position: its state has not advanced past that point.
                let from = match self.deferred.get(self.synced[c]) {
                    Some(&(_, first, _)) => first,
                    None => self.dram_upto,
                };
                self.horizon[c] = self.partitions[c].bulk_horizon(from).unwrap_or(0);
                self.stale[c] = false;
            }
            // `0` refuses outright: a partition needing live service
            // needs its GPU cycle even when the span carries zero DRAM
            // ticks.
            if self.horizon[c] == 0 || end > self.horizon[c] {
                return false;
            }
        }
        true
    }

    /// Second-chance deferral check: catches up any *lagging* partition
    /// whose cached horizon refuses the window ending at `end`, then
    /// re-evaluates. A partition that lags the stage reports a horizon
    /// frozen at its last sync point — typically a burst plan that has
    /// long since been succeeded by the next one — so a refusal from it
    /// says nothing about the live schedule. Replaying just that
    /// partition's visits (through the exact live code paths) forms the
    /// successor plan and usually re-opens the window, keeping one stale
    /// horizon from ending deferral for all partitions (DESIGN.md §4k).
    ///
    /// Returns `true` when every partition's refreshed horizon covers
    /// `end`; `false` means some *current* partition genuinely needs its
    /// visit stepped live.
    pub fn refresh_lagging_through(&mut self, end: Cycle) -> bool {
        let n = self.deferred.len();
        for c in self.active.iter() {
            if self.stale[c] {
                let from = match self.deferred.get(self.synced[c]) {
                    Some(&(_, first, _)) => first,
                    None => self.dram_upto,
                };
                self.horizon[c] = self.partitions[c].bulk_horizon(from).unwrap_or(0);
                self.stale[c] = false;
            }
            if (self.horizon[c] == 0 || end > self.horizon[c]) && self.synced[c] < n {
                self.catch_up_partition(c);
                self.horizon[c] = self.partitions[c].bulk_horizon(self.dram_upto).unwrap_or(0);
                self.stale[c] = false;
            }
            if self.horizon[c] == 0 || end > self.horizon[c] {
                return false;
            }
        }
        true
    }

    /// Replays every deferred stage visit on every partition, leaving all
    /// of them current through `target` (which must equal the recorded
    /// history's end — the stage never lags the clock, only partitions
    /// lag the stage). Must run before anything probes or mutates
    /// per-partition state out of band — the fast-forward probe,
    /// end-of-run stats harvesting — so no observer ever sees a partition
    /// whose deferred visits have not been accounted.
    pub fn catch_up_to(&mut self, target: Cycle) {
        debug_assert!(
            self.deferred.is_empty() || target == self.dram_upto,
            "catch-up target must be the recorded history's end"
        );
        for c in self.active.iter() {
            self.catch_up_partition(c);
        }
        self.compact_deferred();
    }

    /// Whether any partition holds a PIM ack. Exact without catching up
    /// lagging partitions: replaying deferred visits only deposits acks,
    /// and only the completion stage drains them, so a partition holding
    /// one now still holds it once current — and is due now
    /// ([`Partition::horizon`]).
    pub(crate) fn acks_pending(&self) -> bool {
        self.active.iter().any(|c| !self.get(c).acks().is_empty())
    }

    /// When the stage next needs a live visit, at GPU cycle `gpu_now` and
    /// DRAM cycle `dram_now`: the earliest [`Partition::horizon`] in each
    /// clock domain, `None` in both while every partition is idle. One
    /// walk of the active set (every partition outside it is idle). The
    /// walk stops at the first partition due at `gpu_now` and returns
    /// that partition's horizon, since nothing can be skipped then. Read
    /// it after [`MemoryStage::catch_up_to`], so every partition is
    /// current.
    pub(crate) fn horizon(&self, gpu_now: Cycle, dram_now: Cycle) -> Horizon {
        debug_assert!(
            (0..self.channel_count())
                .all(|c| self.active.contains(c) || self.get(c).is_idle(dram_now)),
            "a partition outside the active set holds work"
        );
        let mut h = Horizon::default();
        for c in self.active.iter() {
            let p = self.get(c).horizon(gpu_now, dram_now);
            if p.l2_release == Some(gpu_now) {
                return p;
            }
            h = h.min(p);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Component, ReplyNet, ReplyNetCtx};

    fn stage_with(cfg: &SystemConfig) -> MemoryStage {
        MemoryStage::new(cfg, PolicyKind::FrFcfs)
    }

    fn channel_of(m: &MemoryStage, addr: u64) -> usize {
        m.mapper().decode(pimsim_types::PhysAddr(addr)).channel as usize
    }

    fn pim_load(id: u64, channel: usize) -> Request {
        use pimsim_types::{AppId, PhysAddr, PimCommand, PimOpKind, RequestId, RequestKind};
        let cmd = PimCommand {
            op: PimOpKind::RfLoad,
            channel: channel as u16,
            row: 4,
            col: 0,
            rf_entry: 0,
            block_start: true,
            block_id: id,
        };
        Request::new(
            RequestId(id),
            AppId::PIM,
            RequestKind::Pim(cmd),
            PhysAddr(0),
            8,
            0,
        )
    }

    fn mem_read(id: u64, addr: u64) -> Request {
        use pimsim_types::{AppId, PhysAddr, RequestId, RequestKind};
        Request::new(
            RequestId(id),
            AppId::GPU,
            RequestKind::MemRead,
            PhysAddr(addr),
            3,
            0,
        )
    }

    #[test]
    fn active_set_drops_drained_partitions_and_readmits_on_work() {
        let cfg = SystemConfig::default();
        let mut m = stage_with(&cfg);
        let mut net = ReplyNet::new(&cfg);
        let mut delivered = Vec::new();
        assert_eq!(
            m.active(),
            ActiveSet::default(),
            "a fresh stage holds no work"
        );
        assert_eq!(m.horizon(0, 0), Horizon::default());

        // `partition_mut` admits exactly the partition it hands out...
        let c = channel_of(&m, 0);
        assert!(m.partition_mut(c).try_accept(0, mem_read(1, 0)));
        assert_eq!(m.active().iter().collect::<Vec<_>>(), [c]);
        let due = m.horizon(7, 7);
        assert_eq!((due.l2_release, due.dram), (Some(7), Some(7)));
        // ...and the visit that finds it drained removes it again.
        let mut now = 0;
        while m.active().contains(c) {
            assert!(now < 400, "the read never drained");
            m.step_cycle_all(now, now, 1);
            let ctx = ReplyNetCtx {
                memory: &mut m,
                delivered: &mut delivered,
            };
            net.step(now, ctx);
            now += 1;
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(m.active(), ActiveSet::default());
        assert_eq!(m.horizon(now, now), Horizon::default());

        // An eject through `partition_mut` admits an idle partition
        // without replaying the visits deferred while it was idle...
        let d = (c + 1) % m.channel_count();
        for _ in 0..3 {
            assert!(m.can_defer_through(now + 1), "an empty stage defers");
            m.defer_cycle(now, now, 1);
            now += 1;
        }
        let replays = m.replay_counters();
        assert!(m.partition_mut(d).try_accept(0, pim_load(2, d)));
        assert_eq!(m.active().iter().collect::<Vec<_>>(), [d]);
        assert_eq!(
            m.replay_counters(),
            replays,
            "an idle partition owes no replay"
        );
        // ...and the partition leaves once its ack is drained.
        let mut acks = Vec::new();
        while m.active().contains(d) {
            assert!(now < 800, "the PIM op never drained");
            m.step_cycle_all(now, now, 1);
            m.drain_acks_into(now, &mut acks);
            now += 1;
        }
        assert_eq!(acks.len(), 1);
        assert_eq!(m.active(), ActiveSet::default());
    }

    #[test]
    fn deferred_history_keeps_only_the_largest_lag() {
        // Pure-PIM partitions defer indefinitely (their acks are pulled
        // at delivery, so no production deadline bounds the window).
        // Catching them up through `partition_mut` at staggered points
        // leaves each lagging by a different amount; the history must
        // shrink to the largest remaining lag instead of waiting for
        // every partition to be current at once.
        let mut m = stage_with(&SystemConfig::default());
        for c in 0..m.channel_count() {
            m.partition_mut(c).mc.set_ack_batching(true);
        }
        // One visit drops the (idle) partitions the loop above admitted.
        m.step_cycle_all(0, 0, 1);
        assert_eq!(m.active(), ActiveSet::default());
        let chans = [3, 5, 9];
        for c in chans {
            assert!(m.partition_mut(c).try_accept(0, pim_load(c as u64, c)));
        }
        // Twelve deferred visits; channel 3 is caught up after visit 4,
        // channel 5 after visit 9 and channel 9 after visit 12, leaving
        // them 8, 3 and 0 visits behind.
        for now in 1..=12u64 {
            assert!(m.can_defer_through(now + 1), "pure-PIM work defers");
            m.defer_cycle(now, now, 1);
            let caught_up = match now {
                4 => Some(3),
                9 => Some(5),
                12 => Some(9),
                _ => None,
            };
            if let Some(c) = caught_up {
                m.partition_mut(c);
            }
        }
        // A drain too early to owe any ack pulls nothing and keeps every
        // partition active, but compacts the history down to the largest
        // lag.
        let mut acks = Vec::new();
        m.drain_acks_into(1, &mut acks);
        assert!(acks.is_empty());
        assert_eq!(m.active().iter().collect::<Vec<_>>(), chans);
        assert_eq!(m.deferred.len(), 8);
        // Catching everyone up empties it.
        m.catch_up_to(13);
        assert!(m.deferred.is_empty());
    }

    #[test]
    fn replies_pending_tracks_wire_contents() {
        // A two-entry reply input queue backs replies up in the wires, so
        // drains leave some behind and the memory stage defers visits
        // while they wait — the window in which a summary recomputed
        // only by stepping would go stale.
        let mut cfg = SystemConfig::default();
        cfg.noc.reply_queue_entries = 2;
        let mut m = stage_with(&cfg);
        for c in 0..m.channel_count() {
            m.partition_mut(c).mc.set_ack_batching(true);
        }
        let mut net = ReplyNet::new(&cfg);
        let mut delivered = Vec::new();
        let wires = |m: &MemoryStage| m.iter().any(|p| !p.reply().is_empty());
        assert!(!m.replies_pending, "fresh stage has no replies");
        // Eight reads of one line: one fill releases eight waiters.
        let c = channel_of(&m, 0);
        for id in 0..8 {
            assert!(m.partition_mut(c).try_accept(0, mem_read(id, 0)));
        }
        let (mut saw_pending, mut deferred_pending) = (false, false);
        for now in 0..400u64 {
            let deferred = m.can_defer_through(now + 1);
            if deferred {
                m.defer_cycle(now, now, 1);
            } else {
                m.step_cycle_all(now, now, 1);
            }
            assert_eq!(
                m.replies_pending,
                wires(&m),
                "flag must match wires after a memory visit \
                 (now={now}, deferred={deferred})"
            );
            deferred_pending |= deferred && m.replies_pending;
            saw_pending |= m.replies_pending;
            if m.replies_pending() || net.has_traffic() {
                let ctx = ReplyNetCtx {
                    memory: &mut m,
                    delivered: &mut delivered,
                };
                net.step(now, ctx);
                assert_eq!(
                    m.replies_pending,
                    wires(&m),
                    "flag must match wires after a reply-net drain (now={now})"
                );
            }
        }
        m.catch_up_to(400);
        assert!(saw_pending, "the reads must have produced replies");
        assert!(
            deferred_pending,
            "some visit must have been deferred with replies waiting"
        );
        assert_eq!(delivered.len(), 8);
        assert!(!m.replies_pending);
    }
}
