//! A memory partition: the per-channel slice of the memory subsystem
//! (Figure 7) — interconnect→L2 staging ports, an L2 slice, L2→DRAM
//! staging ports, and the memory controller.
//!
//! Under the baseline VC1 configuration both staging ports are single
//! FIFOs shared by MEM and PIM requests — the head-of-line blocking this
//! causes is exactly the denial-of-service chain of Figure 7a. Under VC2
//! each port is split in half, one lane per request class
//! ([`Port`] splits total capacity evenly, matching Section V-A's
//! equal-total-buffering comparison).
//!
//! The partition steps on the DRAM clock ([`Partition::step_dram`]);
//! its L2 front half ticks on the GPU clock via [`Partition::step_l2`].
//! Hand-offs with the rest of the pipeline are typed credit-based
//! queues: the crossbar ejects into [`Partition::try_accept`] (the
//! ingress [`Port`]) and MEM replies leave through the
//! [`Partition::reply`] wire. PIM acks wait in the controller's ack
//! schedule ([`MemoryController::drain_acks_into`]).

use std::collections::VecDeque;

use pimsim_cache::{AccessOutcome, CacheSlice};
use pimsim_component::{Port, Wire};
use pimsim_core::{Completion, MemoryController, SchedulePolicy};
use pimsim_dram::AddressMapper;
use pimsim_types::{Cycle, DecodedAddr, Request, RequestId, RequestKind, SystemConfig, VcMode};

use crate::pipeline::{ClockCoupler, INTERNAL_ID_BIT, INTERNAL_LANE_SHIFT};

/// Soft threshold on buffered outbound replies before the L2 stalls.
///
/// Not a hard wire capacity: fill installs release all waiters at once
/// and may briefly overshoot, exactly as the pre-port implementation did.
const REPLY_OUT_CAP: usize = 64;

/// Per-partition counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionStats {
    /// Requests accepted into the icnt→L2 ingress port.
    pub icnt_accepted: u64,
    /// Cycles the head of an icnt→L2 lane was stalled.
    pub icnt_head_stalls: u64,
    /// Fill requests sent to DRAM.
    pub fills_sent: u64,
    /// Writebacks sent to DRAM.
    pub writebacks_sent: u64,
}

/// When a partition — or, folded over partitions, the whole memory stage
/// — next needs a live visit: one bound per clock domain, `None` where
/// that domain has nothing pending. Until both bounds pass, stepping the
/// partition changes nothing but its controller's stats integrals, which
/// [`MemoryController::replay_span`] replays in bulk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Horizon {
    /// GPU cycle at which an L2 hit pipeline releases its next reply.
    pub l2_release: Option<Cycle>,
    /// DRAM cycle at which a controller next needs a live step
    /// ([`MemoryController::next_activity_cycle`]).
    pub dram: Option<Cycle>,
}

impl Horizon {
    /// The earlier bound in each domain.
    pub fn min(self, other: Horizon) -> Horizon {
        let earlier = |a: Option<Cycle>, b: Option<Cycle>| a.into_iter().chain(b).min();
        Horizon {
            l2_release: earlier(self.l2_release, other.l2_release),
            dram: earlier(self.dram, other.dram),
        }
    }
}

/// How a partition took one memory-stage visit ([`Partition::visit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Visit {
    /// Skipped, to be replayed when the partition is caught up.
    Lagged,
    /// Skipped for good: the partition is idle, a fixed point of
    /// stepping, so the stage may drop it from its active set.
    Idle,
    /// Stepped live.
    Live,
}

/// One memory partition.
#[derive(Debug)]
pub struct Partition {
    channel: usize,
    vc_mode: VcMode,
    /// Interconnect→L2 staging port (one lane per VC).
    ingress: Port<Request>,
    l2: CacheSlice,
    /// L2→DRAM staging port (one lane per VC).
    to_dram: Port<Request>,
    /// The controller; public so experiments can read its stats.
    pub mc: MemoryController,
    /// L2 pipeline: (ready cycle, request) for hits and merged acks.
    l2_delay: VecDeque<(Cycle, Request)>,
    /// Fill completions from DRAM awaiting L2 install.
    pending_fills: VecDeque<Request>,
    /// Dirty victims awaiting L2→DRAM space.
    pending_writebacks: VecDeque<Request>,
    /// MEM completions awaiting injection into the reply network.
    reply: Wire<Request>,
    /// Non-PIM requests currently staged across the ingress and L2→DRAM
    /// ports — an O(1) mirror of scanning both ports, kept so the
    /// pure-PIM test in [`Partition::may_lag`] costs nothing on the
    /// per-visit read. Updated at every port entry/exit.
    staged_mem: usize,
    /// Round-robin pointers for lane service.
    rr_icnt: usize,
    rr_l2dram: usize,
    /// Per-partition counter for internal (fill/writeback) request IDs;
    /// see [`Partition::mint_internal_id`].
    next_internal_id: u64,
    stats: PartitionStats,
    /// While the partition lags the memory stage ([`Partition::visit`]),
    /// the clock at the first GPU cycle it has not applied; `None` while
    /// it is current.
    lag: Option<ClockCoupler>,
    /// Catch-ups that replayed at least one lagged visit.
    replay_batches: u64,
    /// Lagged visits replayed, summed over all catch-ups.
    replayed_visits: u64,
}

impl Partition {
    /// Builds the partition for `channel`.
    pub fn new(channel: usize, cfg: &SystemConfig, policy: Box<dyn SchedulePolicy>) -> Self {
        assert!(
            (channel as u64) < (INTERNAL_ID_BIT >> INTERNAL_LANE_SHIFT),
            "channel index exceeds the internal-ID lane bits"
        );
        let vcs = cfg.noc.vc_mode.vc_count();
        Partition {
            channel,
            vc_mode: cfg.noc.vc_mode,
            ingress: Port::new(vcs, cfg.mc.icnt_to_l2_entries),
            l2: CacheSlice::new(&cfg.cache, cfg.dram.channels),
            to_dram: Port::new(vcs, cfg.mc.l2_to_dram_entries),
            mc: MemoryController::new(cfg, policy),
            l2_delay: VecDeque::new(),
            pending_fills: VecDeque::new(),
            pending_writebacks: VecDeque::new(),
            reply: Wire::unbounded(),
            staged_mem: 0,
            rr_icnt: 0,
            rr_l2dram: 0,
            next_internal_id: 0,
            stats: PartitionStats::default(),
            lag: None,
            replay_batches: 0,
            replayed_visits: 0,
        }
    }

    /// Mints a simulator-internal request ID (L2 fills and writebacks)
    /// from this partition's own ID lane:
    /// `INTERNAL_ID_BIT | (channel << INTERNAL_LANE_SHIFT) | counter`.
    ///
    /// The sequence depends only on this partition's own traffic, so it
    /// is the same with fast-forward on or off. It is monotone, which the
    /// controller's completion-heap tie-break needs, and the golden
    /// fixtures depend on it.
    pub(crate) fn mint_internal_id(&mut self) -> RequestId {
        debug_assert!(
            self.next_internal_id < 1 << INTERNAL_LANE_SHIFT,
            "internal ID counter overflowed its lane"
        );
        let id = RequestId(
            INTERNAL_ID_BIT
                | ((self.channel as u64) << INTERNAL_LANE_SHIFT)
                | self.next_internal_id,
        );
        self.next_internal_id += 1;
        id
    }

    /// The channel this partition serves.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// Counters snapshot (`icnt_accepted` is derived from the ingress
    /// port's transfer stats).
    pub fn stats(&self) -> PartitionStats {
        PartitionStats {
            icnt_accepted: self.ingress.total_pushed(),
            ..self.stats
        }
    }

    /// The L2 slice (for stats).
    pub fn l2(&self) -> &CacheSlice {
        &self.l2
    }

    fn vc_of(&self, is_pim: bool) -> usize {
        match self.vc_mode {
            VcMode::Shared => 0,
            VcMode::SplitPim => usize::from(is_pim),
        }
    }

    /// The interconnect→L2 ingress port.
    pub fn ingress(&self) -> &Port<Request> {
        &self.ingress
    }

    /// The MEM reply wire feeding the reply network.
    pub fn reply(&self) -> &Wire<Request> {
        &self.reply
    }

    /// Mutable access to the reply wire (the reply network pops it).
    pub fn reply_mut(&mut self) -> &mut Wire<Request> {
        &mut self.reply
    }

    /// Occupancy of the interconnect→L2 staging lane on `vc`.
    pub fn icnt_q_len(&self, vc: usize) -> usize {
        self.ingress.lane(vc).len()
    }

    /// Occupancy of the L2→DRAM staging lane on `vc`.
    pub fn l2dram_q_len(&self, vc: usize) -> usize {
        self.to_dram.lane(vc).len()
    }

    /// Number of virtual channels in this partition's staging ports.
    pub fn vc_count(&self) -> usize {
        self.ingress.lane_count()
    }

    /// Accepts a request from the interconnect on `vc`, returning whether
    /// the ingress lane had credit (the crossbar's eject hand-off).
    pub fn try_accept(&mut self, vc: usize, req: Request) -> bool {
        let accepted = self.ingress.lane_mut(vc).try_send(req).is_ok();
        if accepted && !req.kind.is_pim() {
            self.staged_mem += 1;
        }
        accepted
    }

    /// One GPU-clock step of the L2 stage. Fill and writeback IDs are
    /// minted from this partition's own internal-ID lane.
    pub fn step_l2(&mut self, now: Cycle) {
        self.process_fills(now);
        self.drain_writebacks();
        self.pop_icnt(now);
        self.drain_l2_delay(now);
    }

    /// Installs at most one fill per cycle and releases its waiters.
    fn process_fills(&mut self, now: Cycle) {
        let Some(fill) = self.pending_fills.pop_front() else {
            return;
        };
        let (waiters, writeback) = self.l2.fill(fill.addr, now);
        if let Some(addr) = writeback {
            let id = self.mint_internal_id();
            self.pending_writebacks.push_back(Request::new(
                id,
                fill.app,
                RequestKind::MemWrite,
                addr,
                fill.src_port,
                now,
            ));
        }
        for w in waiters {
            self.reply.send(w);
        }
    }

    fn drain_writebacks(&mut self) {
        let vc = self.vc_of(false);
        while !self.pending_writebacks.is_empty() && self.to_dram.lane(vc).can_accept() {
            let wb = self.pending_writebacks.pop_front().expect("nonempty");
            self.to_dram.lane_mut(vc).send(wb);
            self.staged_mem += 1;
            self.stats.writebacks_sent += 1;
        }
    }

    /// L2 lookups per GPU cycle (the slice's banked tag pipeline).
    const L2_LOOKUPS_PER_CYCLE: usize = 2;

    /// Services up to [`Self::L2_LOOKUPS_PER_CYCLE`] ingress lane heads
    /// per cycle, round-robin over VCs.
    fn pop_icnt(&mut self, now: Cycle) {
        let vcs = self.ingress.lane_count();
        for _ in 0..Self::L2_LOOKUPS_PER_CYCLE {
            if self.reply.len() >= REPLY_OUT_CAP {
                return; // backpressure from the reply network
            }
            let mut serviced = false;
            for i in 0..vcs {
                let vc = (self.rr_icnt + i) % vcs;
                let Some(&head) = self.ingress.lane(vc).peek() else {
                    continue;
                };
                if self.try_service_head(vc, head, now) {
                    self.rr_icnt = (vc + 1) % vcs;
                    serviced = true;
                    break;
                }
                self.stats.icnt_head_stalls += 1;
                // Head-of-line blocking: under VC1 a stuck head stalls
                // everything; under VC2 the other lane still gets its turn.
            }
            if !serviced {
                return;
            }
        }
    }

    /// Attempts to service one lane head; returns whether it was consumed.
    fn try_service_head(&mut self, vc: usize, head: Request, now: Cycle) -> bool {
        if head.kind.is_pim() {
            // PIM bypasses the L2 entirely.
            let dvc = self.vc_of(true);
            if self.to_dram.lane(dvc).can_accept() {
                self.ingress.lane_mut(vc).recv();
                self.to_dram.lane_mut(dvc).send(head);
                return true;
            }
            return false;
        }
        // MEM: a miss needs L2→DRAM space for its fill; check first so the
        // lookup never has to be undone.
        let dvc = self.vc_of(false);
        if !self.to_dram.lane(dvc).can_accept() {
            return false;
        }
        match self.l2.access(head, now) {
            AccessOutcome::Hit => {
                self.ingress.lane_mut(vc).recv();
                self.staged_mem -= 1;
                self.l2_delay.push_back((now + self.l2.latency(), head));
                true
            }
            AccessOutcome::MissAllocated => {
                // The head leaves the ingress and its fill enters the
                // L2→DRAM port: staged_mem is unchanged.
                self.ingress.lane_mut(vc).recv();
                let id = self.mint_internal_id();
                let fill = Request::new(
                    id,
                    head.app,
                    RequestKind::MemRead,
                    self.l2.line_addr(head.addr),
                    head.src_port,
                    now,
                );
                self.to_dram.lane_mut(dvc).send(fill);
                self.stats.fills_sent += 1;
                true
            }
            AccessOutcome::MissMerged => {
                self.ingress.lane_mut(vc).recv();
                self.staged_mem -= 1;
                true
            }
            AccessOutcome::Blocked => false,
        }
    }

    fn drain_l2_delay(&mut self, now: Cycle) {
        while let Some(&(ready, req)) = self.l2_delay.front() {
            if ready <= now {
                self.l2_delay.pop_front();
                self.reply.send(req);
            } else {
                break;
            }
        }
    }

    /// One DRAM-clock step: ingest from the L2→DRAM port, advance the MC,
    /// and route its MEM completions. Returns `false`, having done nothing,
    /// when there is nothing to ingest and the controller is idle — a
    /// state only an arrival in the port ends.
    pub fn step_dram(&mut self, dram_now: Cycle, mapper: &AddressMapper) -> bool {
        // Fast path: a fully idle controller with nothing to ingest can
        // skip the cycle entirely (common while a GPU-bound kernel
        // computes). Occupancy/BLP integrals skip these cycles too, which
        // only affects diagnostic averages.
        if self.to_dram.is_empty() && self.mc.is_idle(dram_now) {
            return false;
        }
        // Ingest up to two requests per DRAM cycle, round-robin over
        // lanes, so queue entry never outpaces what the DRAM can service.
        let vcs = self.to_dram.lane_count();
        for _ in 0..2 {
            let mut ingested = false;
            for i in 0..vcs {
                let vc = (self.rr_l2dram + i) % vcs;
                let Some(&head) = self.to_dram.lane(vc).peek() else {
                    continue;
                };
                let is_pim = head.kind.is_pim();
                if !self.mc.can_accept(is_pim) {
                    continue;
                }
                self.to_dram.lane_mut(vc).recv();
                if !is_pim {
                    self.staged_mem -= 1;
                }
                let decoded = match head.kind {
                    RequestKind::Pim(cmd) => DecodedAddr {
                        channel: cmd.channel,
                        bank: 0,
                        row: cmd.row,
                        col: u32::from(cmd.col),
                    },
                    _ => {
                        let d = mapper.decode(head.addr);
                        debug_assert_eq!(
                            d.channel as usize, self.channel,
                            "request routed to the wrong partition"
                        );
                        d
                    }
                };
                self.mc.enqueue(head, decoded, dram_now);
                self.rr_l2dram = (vc + 1) % vcs;
                ingested = true;
                break;
            }
            if !ingested {
                break;
            }
        }
        self.mc.step(dram_now);
        while let Some(Completion { req, .. }) = self.mc.pop_completion_before(dram_now) {
            debug_assert!(
                !req.kind.is_pim(),
                "PIM ack {:?} in the MEM completion heap",
                req.id
            );
            // A fill installs in the L2; a writeback just retires.
            if req.kind == RequestKind::MemRead {
                self.pending_fills.push_back(req);
            }
        }
        true
    }

    /// Steps `ticks` DRAM cycles starting at `first` — replaying the
    /// whole span at once inside the controller's replay window when
    /// nothing else in the partition needs per-tick servicing, else
    /// falling back to per-tick [`Partition::step_dram`].
    ///
    /// The gate is exact: with the L2→DRAM port empty there is nothing to
    /// ingest, and [`MemoryController::replay_span`] itself refuses when
    /// the span leaves the window, when a completion falls due inside it
    /// (per-tick stepping would pop it at its exact cycle) or when the
    /// controller could go idle mid-span.
    pub fn step_dram_span(&mut self, first: Cycle, ticks: u64, mapper: &AddressMapper) {
        if ticks == 0 {
            return;
        }
        if self.to_dram.is_empty() && self.mc.replay_span(first, ticks) {
            // A replayed span pops no MEM completion: the replay refuses
            // a span in which one falls due.
            return;
        }
        for now in first..first + ticks {
            if !self.step_dram(now, mapper) {
                // Idle with nothing to ingest: every remaining tick would
                // early-return too, since no arrival lands inside a span.
                return;
            }
        }
    }

    /// Whether the GPU-clock L2 front half has nothing to do — a
    /// [`Partition::step_l2`] call would provably mutate nothing. The
    /// outbound reply wire is deliberately excluded: the reply network
    /// drains it without any L2 involvement.
    pub fn l2_quiet(&self) -> bool {
        self.ingress.is_empty()
            && self.l2_delay.is_empty()
            && self.pending_fills.is_empty()
            && self.pending_writebacks.is_empty()
    }

    /// Whether any staged request in `port` is a MEM (non-PIM) request.
    fn port_has_mem(port: &Port<Request>) -> bool {
        port.lanes()
            .any(|lane| lane.iter().any(|r| !r.kind.is_pim()))
    }

    /// Whether this partition may lag the memory stage (both the L2 front
    /// half and DRAM ticks) until it is next observed: every visit it
    /// skips is reproducible later by `Partition::catch_up` with
    /// bit-identical state and no observable (reply, ack delivery, fill)
    /// surfacing in between — provided no request is ejected into the
    /// partition meanwhile (the memory stage catches the partition up on
    /// any `partition_mut` access, and a current partition asks again at
    /// every visit).
    ///
    /// MEM work refuses lagging outright: L2 hits, fills and writebacks
    /// push replies at cycle granularity, and MEM requests staged in the
    /// ports or queued at the controller, or MEM completions in flight
    /// there, lead to them. A *pure-PIM* pipeline (PIM requests waiting
    /// in the ingress or L2→DRAM ports) may lag: PIM bypasses the L2,
    /// touches no reply wire, and the acks it produces are pulled by the
    /// delivery stage, which catches lagging partitions up before every
    /// drain — so no production deadline falls inside the lag. The one
    /// coupling to MEM state is the reply-wire backpressure threshold in
    /// the L2 service loop: while the wire sits below `REPLY_OUT_CAP` and
    /// only drains (nothing in a pure-PIM lag pushes it, and the reply
    /// network catches a partition up before popping it), the threshold
    /// check resolves identically live and at replay; at or above the cap
    /// the stall could lift mid-lag, so lagging is refused while the
    /// ports hold requests.
    pub(crate) fn may_lag(&self) -> bool {
        if !self.l2_delay.is_empty()
            || !self.pending_fills.is_empty()
            || !self.pending_writebacks.is_empty()
        {
            return false;
        }
        debug_assert_eq!(
            self.staged_mem > 0,
            Self::port_has_mem(&self.ingress) || Self::port_has_mem(&self.to_dram),
            "staged_mem counter out of sync with the port contents"
        );
        let pipeline = !self.ingress.is_empty() || !self.to_dram.is_empty();
        if self.staged_mem > 0 || (pipeline && self.reply.len() >= REPLY_OUT_CAP) {
            return false;
        }
        !self.mc.holds_mem_work()
    }

    /// One memory-stage visit: GPU cycle `at.gpu_now()` with the DRAM
    /// ticks `[at.dram_now(), at.dram_now() + ticks)`, where `at` is the
    /// stage clock at the visit (DESIGN.md §4k). A lagging partition keeps
    /// lagging until it is observed. With `lag` on, a current partition
    /// that may lag starts lagging here, recording the clock; one that
    /// holds no work at all is idle instead. Any other steps live.
    pub(crate) fn visit(
        &mut self,
        at: &ClockCoupler,
        ticks: u64,
        mapper: &AddressMapper,
        lag: bool,
    ) -> Visit {
        if self.lag.is_some() {
            return Visit::Lagged;
        }
        let from = at.dram_now();
        if !(lag && self.may_lag()) {
            self.step_l2(at.gpu_now());
            self.step_dram_span(from, ticks, mapper);
            Visit::Live
        } else if self.is_idle(from) {
            Visit::Idle
        } else {
            self.lag = Some(at.clone());
            Visit::Lagged
        }
    }

    /// Replays the stage visits this partition lagged through, up to the
    /// stage clock `to` — the catch-up half of the [`Partition::may_lag`]
    /// contract. No-op while current. Each visit replays through the
    /// *live* code path — `step_l2` plus `step_dram_span`, its DRAM span
    /// taken from the partition's own copy of the clock — which is
    /// bit-identical to never having lagged. Once the ports and the L2
    /// front half are quiet, the remaining visits' L2 steps are provable
    /// no-ops — arrivals come only through the memory stage's
    /// `partition_mut`, which catches the partition up first — so their
    /// DRAM ticks collapse into one span.
    pub(crate) fn catch_up(&mut self, to: &ClockCoupler, mapper: &AddressMapper) {
        let Some(mut clock) = self.lag.take() else {
            return;
        };
        self.replay_batches += 1;
        self.replayed_visits += to.gpu_now() - clock.gpu_now();
        while clock.gpu_now() < to.gpu_now() && !(self.l2_quiet() && self.to_dram.is_empty()) {
            let now = clock.gpu_now();
            clock.accrue_gpu_cycle();
            let (first, ticks) = clock.take_dram_span();
            clock.finish_gpu_cycle();
            self.step_l2(now);
            self.step_dram_span(first, ticks, mapper);
        }
        self.step_dram_span(clock.dram_now(), to.dram_now() - clock.dram_now(), mapper);
    }

    /// The first DRAM tick this partition has not applied while it lags
    /// the memory stage; `None` while it is current.
    pub(crate) fn lag_start(&self) -> Option<Cycle> {
        self.lag.as_ref().map(ClockCoupler::dram_now)
    }

    /// Cumulative catch-up counters: `(catch-ups that replayed at least
    /// one visit, visits replayed)`.
    pub(crate) fn replay_counters(&self) -> (u64, u64) {
        (self.replay_batches, self.replayed_visits)
    }

    /// Whether a port, a wire or the controller's ack schedule holds
    /// work: anything buffered outside the L2 hit pipeline and the
    /// controller's own scheduling state.
    fn buffers_hold_work(&self) -> bool {
        !self.ingress.is_empty()
            || !self.to_dram.is_empty()
            || !self.pending_fills.is_empty()
            || !self.pending_writebacks.is_empty()
            || !self.reply.is_empty()
            || self.mc.acks_pending()
    }

    /// When this partition next needs a live visit, at GPU cycle
    /// `gpu_now` and DRAM cycle `dram_now`. A port or wire holding work
    /// makes it due now in both domains. Otherwise the bounds are the
    /// front of the L2 hit pipeline (a FIFO in ready order, since every
    /// hit waits the same latency) and the controller's horizon; before
    /// them, an L2 step finds nothing to do and a DRAM span is a quiet
    /// replay (or nothing, while the controller is idle).
    pub fn horizon(&self, gpu_now: Cycle, dram_now: Cycle) -> Horizon {
        if self.buffers_hold_work() {
            return Horizon {
                l2_release: Some(gpu_now),
                dram: Some(dram_now),
            };
        }
        Horizon {
            l2_release: self.l2_delay.front().map(|&(ready, _)| ready),
            dram: self.mc.next_activity_cycle(dram_now),
        }
    }

    /// Whether the partition holds no work at all.
    pub fn is_idle(&self, dram_now: Cycle) -> bool {
        !self.buffers_hold_work() && self.l2_delay.is_empty() && self.mc.is_idle(dram_now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_core::policy::PolicyKind;
    use pimsim_types::{AppId, PhysAddr, PimCommand, PimOpKind};

    fn cfg() -> SystemConfig {
        SystemConfig::default()
    }

    fn partition(c: &SystemConfig) -> Partition {
        Partition::new(0, c, PolicyKind::FrFcfs.build())
    }

    fn mapper(c: &SystemConfig) -> AddressMapper {
        AddressMapper::new(&c.addr_map, &c.dram, c.dram_word_bytes())
    }

    fn mem_read(id: u64, addr: u64) -> Request {
        Request::new(
            RequestId(id),
            AppId::GPU,
            RequestKind::MemRead,
            PhysAddr(addr),
            3,
            0,
        )
    }

    fn pim_load(id: u64) -> Request {
        let cmd = PimCommand {
            op: PimOpKind::RfLoad,
            channel: 0,
            row: 4 + id as u32,
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

    /// Drives the partition until quiet, returning delivered MEM replies
    /// and PIM acks. One scratch vector per drive, not per cycle — the
    /// same drain discipline the completion stage uses.
    fn drive(p: &mut Partition, m: &AddressMapper, cycles: u64) -> (Vec<Request>, Vec<Request>) {
        let mut replies = Vec::new();
        let mut acks = Vec::new();
        for now in 0..cycles {
            p.step_l2(now);
            p.step_dram(now, m); // 1:1 clocks are fine for unit tests
            p.mc.drain_acks_into(now, &mut acks);
            while let Some(r) = p.reply_mut().recv() {
                replies.push(r);
            }
        }
        (replies, acks)
    }

    #[test]
    fn mem_read_misses_fills_and_replies() {
        let c = cfg();
        let mut p = partition(&c);
        let m = mapper(&c);
        assert!(p.try_accept(0, mem_read(1, 0x40)));
        let (replies, acks) = drive(&mut p, &m, 300);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].id, RequestId(1));
        assert!(acks.is_empty());
        assert_eq!(p.stats().fills_sent, 1);
        assert_eq!(p.stats().icnt_accepted, 1);
        assert!(p.is_idle(300));
    }

    #[test]
    fn second_access_hits_in_l2() {
        let c = cfg();
        let mut p = partition(&c);
        let m = mapper(&c);
        assert!(p.try_accept(0, mem_read(1, 0x40)));
        let _ = drive(&mut p, &m, 300);
        assert!(p.try_accept(0, mem_read(2, 0x40)));
        let (replies, _) = drive(&mut p, &m, 100);
        assert_eq!(replies.len(), 1, "hit must reply without DRAM");
        assert_eq!(p.stats().fills_sent, 1, "no second fill");
    }

    #[test]
    fn pim_bypasses_l2() {
        let c = cfg();
        let mut p = partition(&c);
        let m = mapper(&c);
        assert!(p.try_accept(0, pim_load(5)));
        let (replies, acks) = drive(&mut p, &m, 300);
        assert!(replies.is_empty());
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].id, RequestId(5));
        assert_eq!(
            p.l2().stats().hits + p.l2().stats().misses,
            0,
            "L2 untouched"
        );
    }

    #[test]
    fn vc1_pim_blocks_mem_behind_it() {
        // Fill the MC PIM path so PIM heads stall the shared lane.
        let mut c = cfg();
        c.mc.l2_to_dram_entries = 2;
        c.mc.pim_q_entries = 1;
        let mut p = Partition::new(0, &c, PolicyKind::MemFirst.build());
        let _m = mapper(&c);
        // Many PIM requests then one MEM request in the shared lane.
        for i in 0..8 {
            let _ = p.try_accept(0, pim_load(i));
        }
        let _ = p.try_accept(0, mem_read(100, 0x40));
        // After a few cycles with a tiny PIM queue, the MEM request is
        // still behind undrained PIM heads.
        for now in 0..3 {
            p.step_l2(now);
        }
        assert_eq!(
            p.stats().fills_sent,
            0,
            "MEM must be stuck behind PIM heads"
        );
    }

    #[test]
    fn vc2_lets_mem_pass_stuck_pim() {
        let mut c = cfg();
        c.noc.vc_mode = VcMode::SplitPim;
        c.mc.pim_q_entries = 1;
        c.mc.l2_to_dram_entries = 4; // 2 per lane
        let mut p = Partition::new(0, &c, PolicyKind::MemFirst.build());
        let m = mapper(&c);
        for i in 0..4 {
            let _ = p.try_accept(1, pim_load(i));
        }
        assert!(p.try_accept(0, mem_read(100, 0x40)));
        let (replies, _) = drive(&mut p, &m, 300);
        assert_eq!(replies.len(), 1, "MEM must complete via its own lane");
        let _ = m;
    }

    #[test]
    fn ingress_capacity_is_enforced() {
        let c = cfg();
        let mut p = partition(&c);
        let cap = c.mc.icnt_to_l2_entries; // single lane
        for i in 0..cap as u64 {
            assert!(p.ingress().lane(0).can_accept());
            assert!(p.try_accept(0, mem_read(i, i * 32)));
        }
        assert!(!p.ingress().lane(0).can_accept());
        assert!(
            !p.try_accept(0, mem_read(99, 99 * 32)),
            "refused, not panicked"
        );
        assert_eq!(p.ingress().lane(0).stats().refused, 1);
    }

    #[test]
    fn internal_id_lanes_never_collide_across_channels() {
        // One partition per channel, each minting a burst of internal IDs:
        // every ID must be unique and tagged, and monotone within its lane
        // for the completion-heap tie-break.
        let c = cfg();
        let mut seen = std::collections::HashSet::new();
        for ch in 0..32 {
            let mut p = Partition::new(ch, &c, PolicyKind::FrFcfs.build());
            let mut prev: Option<u64> = None;
            for _ in 0..1000 {
                let id = p.mint_internal_id().0;
                assert!(id & INTERNAL_ID_BIT != 0, "internal IDs must be tagged");
                assert_eq!(
                    (id & !INTERNAL_ID_BIT) >> INTERNAL_LANE_SHIFT,
                    ch as u64,
                    "lane bits must encode the channel"
                );
                assert!(seen.insert(id), "duplicate internal ID {id:#x}");
                if let Some(prev) = prev {
                    assert!(id > prev, "IDs must be monotone within a lane");
                }
                prev = Some(id);
            }
        }
        assert_eq!(seen.len(), 32 * 1000);
    }
}
