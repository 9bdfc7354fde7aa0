//! The memory stage: every per-channel partition (L2 slice + memory
//! controller + DRAM/PIM channel), stepped serially on the simulation's
//! own thread.
//!
//! # The active set
//!
//! The stage keeps one `ActiveSet` of the partitions that may hold
//! work, and every per-cycle loop — stepping, the fast-forward probe and
//! quiet replay, ack drains, sync and the reply network's wire scan —
//! walks it instead of every channel. A partition *leaves* when a live
//! step or quiet replay leaves it [`Partition::is_idle`] at its DRAM
//! service point, or when a visit to a current partition finds it idle;
//! an idle partition is a fixed point of stepping (empty ports, quiet
//! L2, idle controller), so skipping its visits is exact and it leaves
//! current.
//! It *re-enters* only where work can arrive:
//! [`MemoryStage::partition_mut`] (the crossbar's eject hand-off, unit
//! tests). Draining (acks, replies) only removes work, so those paths
//! never admit a partition.

use pimsim_core::PolicyKind;
use pimsim_dram::AddressMapper;
use pimsim_types::{Cycle, Request, SystemConfig};

use crate::partition::{Horizon, Partition, Visit};
use crate::pipeline::ClockCoupler;

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

/// All memory partitions, each on its own time (DESIGN.md §4k): the L2
/// front halves on the GPU clock, the controllers and DRAM channels on
/// the DRAM clock. The stage owns the simulation's [`ClockCoupler`], at
/// the first GPU cycle it has not visited. A partition may lag behind it
/// (`Partition::visit`), and is caught up wherever its state is
/// observed: [`MemoryStage::partition_mut`],
/// [`MemoryStage::drain_acks_into`], the fast-forward probe and sync.
#[derive(Debug)]
pub struct MemoryStage {
    partitions: Vec<Partition>,
    /// The partitions that may hold work (see the module docs). A
    /// partition outside the set is idle and current, and every loop
    /// skips it.
    active: ActiveSet,
    /// Whether any partition's reply wire is non-empty — exact at all
    /// times. Replies are only *created* by live steps inside
    /// [`MemoryStage::step_cycle`] (the L2 front half releases fill
    /// waiters and drains hit delays there; a lagging partition holds no
    /// MEM work, so replaying its visits creates none), which set the
    /// flag, and only *removed* by the reply network, which writes back
    /// what it left behind ([`MemoryStage::set_replies_pending`]). The
    /// reply network's event-driven skip and the fast-forward probe read
    /// it: while `false` and the reply crossbar is empty, the whole
    /// reply/completion tail of the cycle provably has nothing to move.
    replies_pending: bool,
    /// The simulation's time base, at the first GPU cycle the stage has
    /// not visited. Every partition not lagging is current with it.
    clock: ClockCoupler,
    /// The address decoding every partition reads, also lent to the
    /// issue stage ([`MemoryStage::mapper`]).
    mapper: AddressMapper,
    /// Whether partitions may lag (on by default; see
    /// [`MemoryStage::set_lag`]).
    lag: bool,
}

impl MemoryStage {
    /// Builds one partition per DRAM channel, each with its own policy
    /// instance, the address mapper for `cfg`'s DRAM backend, and the
    /// clock coupling at cycle zero.
    pub fn new(cfg: &SystemConfig, policy: PolicyKind) -> Self {
        let (clock_num, clock_den) = cfg.dram_clock_ratio();
        MemoryStage {
            partitions: (0..cfg.dram.channels)
                .map(|c| Partition::new(c, cfg, policy.build()))
                .collect(),
            active: ActiveSet::default(),
            replies_pending: false,
            clock: ClockCoupler::new(clock_num, clock_den),
            // Decoder construction goes through the backend registry: the
            // pipeline stages service whatever substrate
            // `cfg.dram_backend` names without matching on the kind
            // themselves.
            mapper: pimsim_dram::backend::mapper_for(cfg),
            lag: true,
        }
    }

    /// Lets partitions that hold no MEM work lag the stage (on by
    /// default), or makes every visit step live (DESIGN.md §4k). Both
    /// are exact; only the tick and replay counters differ. A partition
    /// already lagging when this turns off is caught up where it is
    /// next observed, as always.
    pub fn set_lag(&mut self, on: bool) {
        self.lag = on;
    }

    /// The address decoding the partitions use, for the issue stage's
    /// channel routing.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// The clock at the first GPU cycle the stage has not visited.
    pub(crate) fn clock(&self) -> &ClockCoupler {
        &self.clock
    }

    /// The partition serving channel `c` (shared; leaves the active set
    /// as it is). It may lag the stage; `MemoryStage::sync` first for its
    /// current state.
    pub fn get(&self, c: usize) -> &Partition {
        &self.partitions[c]
    }

    /// Iterates all partitions (for stats; `MemoryStage::sync` first).
    pub fn iter(&self) -> impl Iterator<Item = &Partition> {
        self.partitions.iter()
    }

    /// Mutable access to the partition serving channel `c`. First catches
    /// it up on any visits it lagged through — so callers (the crossbar
    /// eject path, the reply network, test drivers) always observe the
    /// exact live state, and an arrival can never land *inside* a lagged
    /// span: a current partition asks `Partition::may_lag` afresh at its
    /// next visit. Also admits the partition to the active set, since
    /// the caller may hand it work.
    pub fn partition_mut(&mut self, c: usize) -> &mut Partition {
        let p = &mut self.partitions[c];
        p.catch_up(&self.clock, &self.mapper);
        self.active.insert(c);
        p
    }

    /// Cumulative catch-up counters summed over partitions:
    /// `(replay_batches, replayed_visits)`.
    pub fn replay_counters(&self) -> (u64, u64) {
        self.iter()
            .map(Partition::replay_counters)
            .fold((0, 0), |(b, v), (pb, pv)| (b + pb, v + pv))
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
    /// limit`) into `out`, from each controller's ack schedule. An ack
    /// is deposited when its op issues, with its data-completion cycle,
    /// and stays invisible until DRAM time reaches that cycle, so
    /// delivery order and cycle match the per-tick reference exactly.
    ///
    /// Ack production is *pull-driven* (DESIGN.md §4k): a lagging
    /// partition may not yet have produced acks that are already due, so
    /// it is caught up here, immediately before the read. The replay
    /// runs the exact live schedule, so the schedules hold precisely the
    /// acks a partition that never lagged would hold and the drained set
    /// is identical. This makes delivery demand — not per-issue completion
    /// latency — the cadence at which busy partitions sync.
    ///
    /// The pull is skipped when no *unproduced* ack can be due yet:
    /// every ack a lagged visit can produce comes from an issue at or
    /// after the partition's first unapplied DRAM tick `f`, and
    /// plan-covered issues deposited their acks when the plan was
    /// created (before the lag began), so the earliest unproduced due is
    /// bounded below by
    /// [`pimsim_core::MemoryController::arrival_bound`]`(f)`. When that
    /// bound clears `limit`, everything due is already in the schedule
    /// and the lag keeps growing — this is what keeps the per-cycle drains
    /// from shattering lags into single-visit replays.
    pub fn drain_acks_into(&mut self, limit: Cycle, out: &mut Vec<Request>) {
        // Acks pending keep a partition out of idle, so the active set
        // covers every non-empty schedule.
        for c in self.active.iter() {
            let p = &mut self.partitions[c];
            let may_owe = p
                .lag_start()
                .is_some_and(|f| p.mc.arrival_bound(f) <= limit);
            if may_owe {
                p.catch_up(&self.clock, &self.mapper);
            }
            p.mc.drain_acks_into(limit, out);
        }
    }

    /// One GPU cycle of memory work — the L2 front halves, then every
    /// DRAM tick the cycle fires — and the stage clock's advance past
    /// it. Each active partition lags through the visit or steps live on
    /// its own ([`Partition::visit`]); they share nothing within the
    /// stage, so that is exact. Returns whether any partition stepped
    /// live (the `ticks_memory` count).
    pub(crate) fn step_cycle(&mut self) -> bool {
        let at = self.clock.clone();
        self.clock.accrue_gpu_cycle();
        let (first, ticks) = self.clock.take_dram_span();
        self.clock.finish_gpu_cycle();
        let mut live = false;
        for c in self.active.iter() {
            let p = &mut self.partitions[c];
            match p.visit(&at, ticks, &self.mapper, self.lag) {
                Visit::Lagged => {}
                Visit::Idle => self.active.remove(c),
                Visit::Live => {
                    live = true;
                    self.replies_pending |= !p.reply().is_empty();
                    // A partition leaves the set once a visit that
                    // stepped it leaves it idle.
                    if p.is_idle(first + ticks) {
                        self.active.remove(c);
                    }
                }
            }
        }
        live
    }

    /// Jumps the stage clock to GPU cycle `target`, replaying the DRAM
    /// ticks the jump covers on every active partition and advancing
    /// each controller's stats integrals exactly as per-tick stepping
    /// would have.
    ///
    /// The fast-forward path calls this after a [`MemoryStage::horizon`]
    /// walk that caught every active partition up, with `target` at
    /// most the DRAM bound it returned: no partition answered a horizon
    /// inside the span, which it only does with its ports and wires
    /// empty and its controller idle or inside a stall window covering
    /// the span — so the per-partition replay is the bulk
    /// [`pimsim_core::MemoryController::replay_span`] path, or
    /// nothing for an idle controller
    /// ([`crate::partition::Partition::step_dram_span`] falls back to
    /// exact per-tick stepping where the controller goes idle
    /// mid-span). The GPU-clock L2 steps of the span are no-ops: the
    /// jump also stops at the L2 release bound.
    pub(crate) fn quiet_replay_all(&mut self, target: Cycle) {
        let first = self.clock.dram_now();
        self.clock.jump_to(target);
        let end = self.clock.dram_now();
        if end == first {
            return;
        }
        for c in self.active.iter() {
            let p = &mut self.partitions[c];
            debug_assert!(
                p.lag_start().is_none(),
                "bulk replay of a lagging partition"
            );
            p.step_dram_span(first, end - first, &self.mapper);
            if p.is_idle(end) {
                self.active.remove(c);
            }
        }
    }

    /// Catches every lagging partition up to the stage clock. Run before
    /// partitions are inspected out of band — end-of-run stats
    /// harvesting, the public `Simulator::step` — so no observer sees a
    /// partition whose lagged visits are unaccounted.
    pub(crate) fn sync(&mut self) {
        for c in self.active.iter() {
            self.partitions[c].catch_up(&self.clock, &self.mapper);
        }
    }

    /// Whether any partition holds a PIM ack. Exact without catching up
    /// lagging partitions: replaying lagged visits only deposits acks,
    /// and only the completion stage drains them, so a partition holding
    /// one now still holds it once current — and is due now
    /// ([`Partition::horizon`]).
    pub(crate) fn acks_pending(&self) -> bool {
        self.active.iter().any(|c| self.get(c).mc.acks_pending())
    }

    /// When the stage next needs a live visit, at the stage clock: the
    /// earliest [`Partition::horizon`] in each clock domain, `None` in
    /// both while every partition is idle. One walk of the active set
    /// (every partition outside it is idle), catching each partition up
    /// as it reads it. The walk stops at the first partition due at the
    /// current GPU cycle and returns that partition's horizon, since
    /// nothing can be skipped then; the partitions after it keep their
    /// lag.
    pub(crate) fn horizon(&mut self) -> Horizon {
        let (gpu_now, dram_now) = (self.clock.gpu_now(), self.clock.dram_now());
        debug_assert!(
            (0..self.channel_count())
                .all(|c| self.active.contains(c) || self.get(c).is_idle(dram_now)),
            "a partition outside the active set holds work"
        );
        let mut h = Horizon::default();
        for c in self.active.iter() {
            let p = &mut self.partitions[c];
            p.catch_up(&self.clock, &self.mapper);
            let p = p.horizon(gpu_now, dram_now);
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
    use crate::pipeline::{ReplyNet, ReplyNetCtx};

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

    /// The last DRAM tick the stage has serviced — the simulator's ack
    /// drain limit.
    fn serviced(m: &MemoryStage) -> Cycle {
        m.clock().dram_now().saturating_sub(1)
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
        assert_eq!(m.horizon(), Horizon::default());

        // `partition_mut` admits exactly the partition it hands out...
        let c = channel_of(&m, 0);
        assert!(m.partition_mut(c).try_accept(0, mem_read(1, 0)));
        assert_eq!(m.active().iter().collect::<Vec<_>>(), [c]);
        let due = m.horizon();
        assert_eq!((due.l2_release, due.dram), (Some(0), Some(0)));
        // ...and the visit that finds it drained removes it again.
        let mut now = 0;
        while m.active().contains(c) {
            assert!(now < 400, "the read never drained");
            m.step_cycle();
            let ctx = ReplyNetCtx {
                memory: &mut m,
                delivered: &mut delivered,
            };
            net.step(now, ctx);
            now += 1;
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(m.active(), ActiveSet::default());
        assert_eq!(m.horizon(), Horizon::default());

        // An eject through `partition_mut` admits an idle partition
        // without replaying the visits it sat out...
        let d = (c + 1) % m.channel_count();
        for _ in 0..3 {
            assert!(!m.step_cycle(), "an empty stage steps nothing live");
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
            m.step_cycle();
            m.drain_acks_into(serviced(&m), &mut acks);
            now += 1;
        }
        assert_eq!(acks.len(), 1);
        assert_eq!(m.active(), ActiveSet::default());
    }

    #[test]
    fn partitions_lag_independently_and_match_the_eager_twin() {
        // In one stage, a partition fed a MEM read before every visit
        // must step live each time, while a pure-PIM partition lags
        // through the same visits (its acks are pulled at delivery). An
        // eager twin — lag off, so no partition ever lags — must end with
        // the same controller stats and drain every ack at the same
        // cycle.
        const VISITS: u64 = 120;
        let cfg = SystemConfig::default();
        let (mut lazy, mut eager) = (stage_with(&cfg), stage_with(&cfg));
        eager.set_lag(false);
        let cm = channel_of(&lazy, 0);
        let cp = (cm + 1) % lazy.channel_count();
        let reads: Vec<u64> = (0..)
            .map(|i| i * 128)
            .filter(|&a| channel_of(&lazy, a) == cm)
            .take(VISITS as usize)
            .collect();
        let mut logs = [Vec::new(), Vec::new()];
        for (m, log) in [&mut lazy, &mut eager].into_iter().zip(&mut logs) {
            let is_lazy = m.lag;
            for id in 0..4 {
                assert!(m.partition_mut(cp).try_accept(0, pim_load(id, cp)));
            }
            for (i, &addr) in reads.iter().enumerate() {
                let _ = m
                    .partition_mut(cm)
                    .try_accept(0, mem_read(100 + i as u64, addr));
                assert!(m.step_cycle(), "the MEM partition steps live");
                assert!(m.get(cm).lag_start().is_none());
                assert_eq!(m.get(cp).lag_start().is_some(), is_lazy);
            }
            // The lag replays only when something catches it up: here an
            // eject of more PIM work.
            let lagged = if is_lazy { (1, VISITS) } else { (0, 0) };
            assert_eq!(m.get(cp).replay_counters(), (0, 0));
            for id in 4..8 {
                assert!(m.partition_mut(cp).try_accept(0, pim_load(id, cp)));
            }
            assert_eq!(m.get(cp).replay_counters(), lagged);
            let mut acks = Vec::new();
            for now in VISITS..VISITS + 2_000 {
                m.step_cycle();
                m.drain_acks_into(serviced(m), &mut acks);
                log.extend(acks.drain(..).map(|r| (now, r.id)));
            }
            m.sync();
        }
        assert_eq!(logs[0].len(), 8, "every PIM op must be acked");
        assert_eq!(logs[0], logs[1], "ack drain cycles");
        for c in [cm, cp] {
            assert_eq!(
                lazy.get(c).mc.stats(),
                eager.get(c).mc.stats(),
                "channel {c}"
            );
        }
    }

    #[test]
    fn partitions_holding_mem_work_never_lag() {
        // One partition gets a MEM read and four PIM loads. While its
        // controller holds the read queued, no visit may leave it lagging,
        // whatever stall or plan window the controller sits in: MEM work
        // steps live. Once the read has left, the pure-PIM remainder lags.
        // An eager twin — lag off, so nothing lags — must deliver the
        // reply and every ack at the same cycles and end with the same
        // controller stats.
        let cfg = SystemConfig::default();
        let (mut lazy, mut eager) = (stage_with(&cfg), stage_with(&cfg));
        eager.set_lag(false);
        let c = channel_of(&lazy, 0);
        let mut logs = [Vec::new(), Vec::new()];
        let mut lagged = false;
        for (m, log) in [&mut lazy, &mut eager].into_iter().zip(&mut logs) {
            let mut net = ReplyNet::new(&cfg);
            assert!(m.partition_mut(c).try_accept(0, mem_read(100, 0)));
            for id in 0..4 {
                assert!(m.partition_mut(c).try_accept(0, pim_load(id, c)));
            }
            let (mut acks, mut replies, mut held_mem) = (Vec::new(), Vec::new(), false);
            for now in 0..2_000 {
                m.step_cycle();
                // A lagging partition shows the state it lagged from.
                let p = m.get(c);
                if p.mc.mem_q_len() > 0 {
                    held_mem = true;
                    assert!(
                        p.lag_start().is_none(),
                        "a partition holding MEM work lagged (cycle {now})"
                    );
                }
                lagged |= p.lag_start().is_some();
                m.drain_acks_into(serviced(m), &mut acks);
                if m.replies_pending() || net.has_traffic() {
                    let ctx = ReplyNetCtx {
                        memory: m,
                        delivered: &mut replies,
                    };
                    net.step(now, ctx);
                }
                log.extend(acks.drain(..).chain(replies.drain(..)).map(|r| (now, r.id)));
            }
            assert!(held_mem, "the read never reached the controller queue");
            m.sync();
        }
        assert!(lagged, "the pure-PIM remainder never lagged");
        assert_eq!(logs[0].len(), 5, "the reply and every ack");
        assert_eq!(logs[0], logs[1], "delivery cycles");
        assert_eq!(lazy.get(c).mc.stats(), eager.get(c).mc.stats());
    }

    #[test]
    fn replies_pending_tracks_wire_contents() {
        // A two-entry reply input queue backs replies up in the wires, so
        // drains leave some behind and the partition lags through visits
        // while they wait — the window in which a summary recomputed
        // only by stepping would go stale.
        let mut cfg = SystemConfig::default();
        cfg.noc.reply_queue_entries = 2;
        let mut m = stage_with(&cfg);
        let mut net = ReplyNet::new(&cfg);
        let mut delivered = Vec::new();
        let wires = |m: &MemoryStage| m.iter().any(|p| !p.reply().is_empty());
        assert!(!m.replies_pending, "fresh stage has no replies");
        // Eight reads of one line: one fill releases eight waiters.
        let c = channel_of(&m, 0);
        for id in 0..8 {
            assert!(m.partition_mut(c).try_accept(0, mem_read(id, 0)));
        }
        let (mut saw_pending, mut lagged_pending) = (false, false);
        for now in 0..400u64 {
            let live = m.step_cycle();
            assert_eq!(
                m.replies_pending,
                wires(&m),
                "flag must match wires after a memory visit \
                 (now={now}, live={live})"
            );
            lagged_pending |= !live && m.replies_pending;
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
        m.sync();
        assert!(saw_pending, "the reads must have produced replies");
        assert!(
            lagged_pending,
            "some visit must have been lagged through with replies waiting"
        );
        assert_eq!(delivered.len(), 8);
        assert!(!m.replies_pending);
    }
}
