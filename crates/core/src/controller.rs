//! The per-channel memory controller: queues, mode switching with drain,
//! DRAM command generation, and statistics.
//!
//! The controller is the *mechanism* half of the design: each DRAM cycle it
//! asks its [`SchedulePolicy`] for the desired mode, performs drains and
//! switches, and issues at most one DRAM command chosen by walking the
//! policy's `(class, age)` priority over legal candidates. PIM requests are
//! always serviced FCFS (queue order) for correctness.

use std::collections::{BinaryHeap, VecDeque};

use pimsim_dram::{Channel, DramCommand, PimEngine};
use pimsim_stats::Histogram;
use pimsim_types::{
    Cycle, DecodedAddr, Mode, PagePolicy, PimOpKind, Request, RequestKind, SystemConfig,
};

use crate::mem_index::{key_age, key_bank, rank_key, MAX_BANKS};
use crate::policy::SchedulePolicy;
use crate::queue::{McQueues, QueuedRequest};
use crate::schedule::Schedule;

/// A serviced request leaving the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The original request.
    pub req: Request,
    /// DRAM cycle at which its data transfer completes.
    pub at: Cycle,
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse time order so BinaryHeap pops the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.req.id.cmp(&self.req.id))
    }
}

/// Mode-switch bookkeeping while draining.
#[derive(Debug, Clone, Copy)]
struct SwitchInProgress {
    target: Mode,
    started: Cycle,
}

/// The replay window (DESIGN.md §4g): cycles strictly before `until`
/// need no scheduling decision, so [`MemoryController::step`] and
/// [`MemoryController::replay_span`] replay them instead of stepping.
#[derive(Debug)]
struct Window {
    /// One past the window's last cycle; at or after it the next step is
    /// a full one.
    until: Cycle,
    kind: WindowKind,
    /// A plan's not-yet-issued ops, front = next to issue: the popped
    /// request, its data-completion cycle and its frozen bypass flag.
    /// They still occupy their PIM-queue slots as seen from outside
    /// until they issue, so `can_accept`, `pim_q_len` and the occupancy
    /// integral count them. Empty outside a plan.
    ops: VecDeque<(QueuedRequest, Cycle, bool)>,
    /// A stall's bank busy expiries `(busy_until, bit)` still ahead,
    /// latest first: the replay pops them off the back as time passes.
    expiries: Vec<(Cycle, u64)>,
}

#[derive(Debug, Clone, Copy)]
enum WindowKind {
    /// A full step issued nothing and proved that nothing can issue, no
    /// policy decision change and no refresh fall due before the window
    /// ends. An enqueue voids it. The BLP mask is the frozen queue
    /// `demand` OR the banks still `busy`.
    Stall { demand: u64, busy: u64 },
    /// A burst plan (DESIGN.md §4h): the next planned op issues at
    /// `next_issue`, the rest `stride` ticks apart. Enqueues never void
    /// it: the policy's `stable_pim_run` guarantee is unconditional.
    Plan { next_issue: Cycle, stride: Cycle },
}

/// Controller statistics (the sources for Figures 4, 6, and 10).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McStats {
    /// MEM requests accepted into the MEM queue.
    pub mem_arrivals: u64,
    /// PIM requests accepted into the PIM queue.
    pub pim_arrivals: u64,
    /// MEM requests serviced (column command issued).
    pub mem_served: u64,
    /// PIM requests serviced.
    pub pim_served: u64,
    /// MEM column commands that hit the row buffer.
    pub mem_row_hits: u64,
    /// MEM requests that required an activate (row miss/conflict).
    pub mem_row_misses: u64,
    /// PIM ops that hit (mid-block ops).
    pub pim_row_hits: u64,
    /// PIM ops that required an all-bank activate (block starts).
    pub pim_row_misses: u64,
    /// Completed mode switches.
    pub switches: u64,
    /// Completed MEM→PIM switches.
    pub switches_mem_to_pim: u64,
    /// Total drain latency (DRAM cycles) across MEM→PIM switches.
    pub mem_drain_latency_sum: u64,
    /// MEM requests that had to re-open a row a switch had closed
    /// ("additional MEM conflicts", Figure 10b).
    pub switch_conflicts: u64,
    /// Sum over active DRAM cycles of the number of busy banks (BLP
    /// numerator; Figure 4c).
    pub blp_sum: u64,
    /// DRAM cycles with at least one busy bank (BLP denominator).
    pub active_cycles: u64,
    /// Sum over cycles of MEM queue occupancy.
    pub mem_q_occupancy_sum: u64,
    /// Sum over cycles of PIM queue occupancy.
    pub pim_q_occupancy_sum: u64,
    /// Cycles stepped.
    pub cycles: u64,
    /// Cycles spent in MEM mode (not draining).
    pub cycles_mem_mode: u64,
    /// Cycles spent in PIM mode (not draining).
    pub cycles_pim_mode: u64,
    /// Cycles spent draining for a mode switch.
    pub cycles_draining: u64,
    /// Per-request MEM latency (controller arrival to data completion),
    /// DRAM cycles.
    pub mem_latency: Histogram,
    /// Per-request PIM latency, DRAM cycles.
    pub pim_latency: Histogram,
}

impl McStats {
    /// MEM row-buffer hit rate, if any MEM request was serviced.
    pub fn mem_rbhr(&self) -> Option<f64> {
        let total = self.mem_row_hits + self.mem_row_misses;
        (total > 0).then(|| self.mem_row_hits as f64 / total as f64)
    }

    /// PIM row-buffer hit rate.
    pub fn pim_rbhr(&self) -> Option<f64> {
        let total = self.pim_row_hits + self.pim_row_misses;
        (total > 0).then(|| self.pim_row_hits as f64 / total as f64)
    }

    /// Average bank-level parallelism over active DRAM cycles.
    pub fn avg_blp(&self) -> Option<f64> {
        (self.active_cycles > 0).then(|| self.blp_sum as f64 / self.active_cycles as f64)
    }

    /// Average MEM conflicts added per MEM→PIM switch.
    pub fn conflicts_per_switch(&self) -> Option<f64> {
        (self.switches_mem_to_pim > 0)
            .then(|| self.switch_conflicts as f64 / self.switches_mem_to_pim as f64)
    }

    /// Average MEM drain latency per MEM→PIM switch, in DRAM cycles.
    pub fn drain_latency_per_switch(&self) -> Option<f64> {
        (self.switches_mem_to_pim > 0)
            .then(|| self.mem_drain_latency_sum as f64 / self.switches_mem_to_pim as f64)
    }

    /// Merges the counters of another controller (for cross-channel
    /// aggregation).
    pub fn merge(&mut self, o: &McStats) {
        self.mem_arrivals += o.mem_arrivals;
        self.pim_arrivals += o.pim_arrivals;
        self.mem_served += o.mem_served;
        self.pim_served += o.pim_served;
        self.mem_row_hits += o.mem_row_hits;
        self.mem_row_misses += o.mem_row_misses;
        self.pim_row_hits += o.pim_row_hits;
        self.pim_row_misses += o.pim_row_misses;
        self.switches += o.switches;
        self.switches_mem_to_pim += o.switches_mem_to_pim;
        self.mem_drain_latency_sum += o.mem_drain_latency_sum;
        self.switch_conflicts += o.switch_conflicts;
        self.blp_sum += o.blp_sum;
        self.active_cycles += o.active_cycles;
        self.mem_q_occupancy_sum += o.mem_q_occupancy_sum;
        self.pim_q_occupancy_sum += o.pim_q_occupancy_sum;
        self.cycles += o.cycles;
        self.cycles_mem_mode += o.cycles_mem_mode;
        self.cycles_pim_mode += o.cycles_pim_mode;
        self.cycles_draining += o.cycles_draining;
        self.mem_latency.merge(&o.mem_latency);
        self.pim_latency.merge(&o.pim_latency);
    }
}

impl pimsim_stats::Mergeable for McStats {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

/// How the controller's cycles were serviced: full scheduling steps, or
/// replays of a stall window or a burst plan's window (DESIGN.md §4g,
/// §4h). Kept outside [`McStats`] on purpose — the
/// fast/oracle equivalence tests compare `McStats` bit-for-bit, and the
/// step mix is exactly what is *allowed* to differ between the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepMix {
    /// Cycles serviced by a full scheduling step.
    pub full_steps: u64,
    /// Cycles replayed inside a stall window (per tick or in spans).
    pub memo_replayed: u64,
    /// Cycles replayed inside a burst plan's window (per tick or in
    /// spans).
    pub burst_retired: u64,
    /// Stall windows voided by an enqueue before they elapsed.
    pub memo_invalidations: u64,
    /// Burst plans created. Plans are never invalidated: the policy's
    /// `stable_pim_run` guarantee is unconditional and the refresh
    /// horizon is folded in at planning time.
    pub bursts_planned: u64,
    /// PIM ops retired through burst plans.
    pub burst_ops: u64,
    /// GPU cycles in which the issue stage ran. Controllers leave the
    /// per-stage tick counters at zero; the simulator fills them in when
    /// merging (it owns the pipeline, controllers only see DRAM ticks).
    pub ticks_issue: u64,
    /// GPU cycles in which the request crossbar ran.
    pub ticks_request_net: u64,
    /// GPU cycles in which the memory stage ran.
    pub ticks_memory: u64,
    /// GPU cycles in which the reply crossbar actually stepped (the
    /// event-driven path skips it while no reply is queued or in flight).
    pub ticks_reply_net: u64,
    /// GPU cycles in which the completion stage ran: it collects acks on
    /// every stepped cycle while a PIM kernel is mounted, and retires
    /// replies on the cycles the reply crossbar stepped.
    pub ticks_completion: u64,
    /// Kernel completions retired (PIM acks + MEM replies).
    pub completions_delivered: u64,
    /// PIM completions deposited into the controller's ack schedule
    /// (every PIM op's, at issue; DESIGN.md §4k). pimbench reads it as
    /// `batch.acks_batched`.
    pub acks_batched: u64,
    /// Spans of a burst plan's window replayed in one
    /// [`MemoryController::replay_span`] call (each covers one or more
    /// `burst_retired` ticks).
    pub plan_spans_replayed: u64,
    /// Always zero: crossbar ejections hand off live since eject
    /// batching was retired (DESIGN.md §4l). Kept only because pimbench
    /// still reports it as `batch.requests_batched`.
    pub requests_batched: u64,
    /// Catch-ups of a partition that lagged the memory stage by at least
    /// one visit.
    pub replay_batches: u64,
    /// Lagged stage visits replayed across all `replay_batches` — the
    /// numerator of [`StepMix::mean_deferral_window`].
    pub replayed_visits: u64,
}

impl StepMix {
    /// Fraction of serviced cycles retired by burst plans, if any cycle
    /// was serviced.
    pub fn burst_hit_rate(&self) -> Option<f64> {
        let total = self.full_steps + self.memo_replayed + self.burst_retired;
        (total > 0).then(|| self.burst_retired as f64 / total as f64)
    }

    /// Mean lagged visits replayed per catch-up — the length of the
    /// average lag as one partition sees it (DESIGN.md §4k). Per-eject
    /// catch-ups keep it short on saturated PIM (≈4 visits on hotloop's
    /// `standalone_pim`).
    pub fn mean_deferral_window(&self) -> Option<f64> {
        (self.replay_batches > 0).then(|| self.replayed_visits as f64 / self.replay_batches as f64)
    }
}

impl pimsim_stats::Mergeable for StepMix {
    fn merge_from(&mut self, o: &Self) {
        self.full_steps += o.full_steps;
        self.memo_replayed += o.memo_replayed;
        self.burst_retired += o.burst_retired;
        self.memo_invalidations += o.memo_invalidations;
        self.bursts_planned += o.bursts_planned;
        self.burst_ops += o.burst_ops;
        self.ticks_issue += o.ticks_issue;
        self.ticks_request_net += o.ticks_request_net;
        self.ticks_memory += o.ticks_memory;
        self.ticks_reply_net += o.ticks_reply_net;
        self.ticks_completion += o.ticks_completion;
        self.completions_delivered += o.completions_delivered;
        self.acks_batched += o.acks_batched;
        self.plan_spans_replayed += o.plan_spans_replayed;
        self.requests_batched += o.requests_batched;
        self.replay_batches += o.replay_batches;
        self.replayed_visits += o.replayed_visits;
    }
}

/// One channel's memory controller.
///
/// # Example
///
/// ```
/// use pimsim_core::{MemoryController, policy::PolicyKind};
/// use pimsim_types::SystemConfig;
///
/// let cfg = SystemConfig::default();
/// let mc = MemoryController::new(&cfg, PolicyKind::FrFcfs.build());
/// assert!(mc.is_idle(0));
/// ```
#[derive(Debug)]
pub struct MemoryController {
    queues: McQueues,
    channel: Channel,
    pim_engine: PimEngine,
    mode: Mode,
    switch: Option<SwitchInProgress>,
    policy: Box<dyn SchedulePolicy>,
    /// MEM fills and writebacks in flight, popped at their
    /// data-completion cycle. PIM completions never enter it: they go to
    /// `acks`.
    completions: BinaryHeap<Completion>,
    /// PIM completions, deposited — already timestamped — the moment an
    /// op's data-completion cycle is known: at its issue, or for a whole
    /// burst plan at the plan's creation (§4h computes every op's cycle
    /// in closed form). The paper returns a PIM op's ack as an
    /// out-of-band credit whose cycle is fixed at issue, so the owner
    /// drains the due prefix by cycle and each ack is observable at
    /// exactly that cycle (DESIGN.md §4k).
    acks: Schedule,
    /// One past the latest `at` ever deposited into `acks`. The
    /// controller is not idle before it, just as it stays busy while a
    /// completion waits in `completions`; the idle fast path and every
    /// stats integral depend on that.
    acks_until: Cycle,
    /// Rows open at the last MEM→PIM switch; used to attribute reopened
    /// rows to the switch (Figure 10b).
    rows_at_switch: Vec<Option<u32>>,
    /// Open row per bank as the policy view and the MEM candidate index
    /// last saw it; rebuilt when the channel's row state moves.
    open_rows: Vec<Option<u32>>,
    /// Scratch for [`MemoryController::issue_mem`]: the banks' rank keys
    /// in issue order, reused across cycles so the hot loop allocates
    /// nothing.
    scratch_order: Vec<u64>,
    page_policy: PagePolicy,
    /// The stall or burst plan being replayed, if `now < window.until`.
    window: Window,
    /// Oracle knob: `false` never arms a stall, so every cycle outside a
    /// plan takes a full step (what the stall equivalence property test
    /// compares against).
    stall_enabled: bool,
    /// Oracle knob for burst plans, mirroring `stall_enabled`.
    burst_enabled: bool,
    /// Scratch for [`MemoryController::retire_burst`]: per-op
    /// `writes_row` flags, reused across plans.
    burst_writes: Vec<bool>,
    /// Scratch for [`MemoryController::retire_burst`]: per-op completion
    /// cycles from the channel's bulk issue.
    burst_completions: Vec<Cycle>,
    /// `channel.row_epoch()` at the last `open_rows` rebuild; the scratch
    /// view is only rebuilt when the channel's row state actually moved.
    open_rows_epoch: u64,
    mix: StepMix,
    stats: McStats,
}

impl MemoryController {
    /// Creates a controller for one channel.
    ///
    /// # Panics
    ///
    /// Panics if the channel has more than 64 banks (the width of the
    /// controller's bank masks; `SystemConfig::validate` rejects those).
    pub fn new(cfg: &SystemConfig, policy: Box<dyn SchedulePolicy>) -> Self {
        let banks = cfg.dram.banks;
        assert!(
            banks <= MAX_BANKS,
            "dram.banks = {banks}: the controller's bank masks cover at most {MAX_BANKS} banks"
        );
        let rf_per_bank = cfg.dram.pim_rf_entries * cfg.dram.pim_fus_per_channel / cfg.dram.banks;
        MemoryController {
            queues: McQueues::new(cfg.mc.mem_q_entries, cfg.mc.pim_q_entries),
            // Constructed through the backend registry, so the controller
            // services whichever substrate `cfg.dram_backend` names
            // without knowing its kind.
            channel: pimsim_dram::backend::channel_for(cfg),
            pim_engine: PimEngine::new(rf_per_bank.max(1)),
            mode: Mode::Mem,
            switch: None,
            policy,
            completions: BinaryHeap::new(),
            acks: Schedule::default(),
            acks_until: 0,
            rows_at_switch: vec![None; banks],
            open_rows: vec![None; banks],
            scratch_order: Vec::with_capacity(banks),
            page_policy: cfg.mc.page_policy,
            window: Window {
                until: 0,
                kind: WindowKind::Stall { demand: 0, busy: 0 },
                ops: VecDeque::new(),
                expiries: Vec::with_capacity(banks),
            },
            stall_enabled: true,
            burst_enabled: true,
            burst_writes: Vec::new(),
            burst_completions: Vec::new(),
            open_rows_epoch: u64::MAX,
            mix: StepMix::default(),
            stats: McStats::default(),
        }
    }

    /// Disables (or re-enables) stall windows; with them off every cycle
    /// outside a burst plan takes a full step — the brute-force oracle the
    /// equivalence property test compares the stall memo against.
    pub fn set_stall_enabled(&mut self, enabled: bool) {
        self.stall_enabled = enabled;
        if let WindowKind::Stall { .. } = self.window.kind {
            self.window.until = 0;
        }
    }

    /// Disables (or re-enables) closed-form burst retirement; with it off
    /// every PIM op issues through the per-cycle path — the brute-force
    /// oracle the burst equivalence property test compares against. Call
    /// before stepping: a live plan cannot be un-retired.
    ///
    /// # Panics
    ///
    /// Panics if a burst plan is currently live.
    pub fn set_burst_enabled(&mut self, enabled: bool) {
        assert!(
            self.window.ops.is_empty(),
            "cannot toggle burst retirement mid-plan"
        );
        self.burst_enabled = enabled;
    }

    /// How this controller's cycles were serviced (full steps vs stall
    /// and plan replays) — observability only, never part of the
    /// fast/oracle equivalence surface.
    pub fn step_mix(&self) -> StepMix {
        self.mix
    }

    /// Current servicing mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Name of the installed policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Whether a request of the given kind can be accepted. Ops a burst
    /// plan retired eagerly still occupy their PIM-queue slots until
    /// their analytic issue cycles pass, so arrival pacing — and with it
    /// every downstream age and timestamp — matches per-cycle stepping
    /// exactly.
    pub fn can_accept(&self, is_pim: bool) -> bool {
        if is_pim {
            self.queues.pim_len() + self.window.ops.len() < self.queues.pim_capacity()
        } else {
            self.queues.can_accept(false)
        }
    }

    /// Queued MEM requests.
    pub fn mem_q_len(&self) -> usize {
        self.queues.mem_len()
    }

    /// Queued PIM requests (including a live burst plan's not-yet-issued
    /// reservations; see [`MemoryController::can_accept`]).
    pub fn pim_q_len(&self) -> usize {
        self.queues.pim_len() + self.window.ops.len()
    }

    /// Accepts a request.
    ///
    /// # Panics
    ///
    /// Panics if the target queue is full (check [`MemoryController::can_accept`]).
    pub fn enqueue(&mut self, req: Request, decoded: DecodedAddr, now: Cycle) {
        if req.kind.is_pim() {
            self.stats.pim_arrivals += 1;
        } else {
            self.stats.mem_arrivals += 1;
        }
        // New work changes the scheduling view: a stall is void. A plan
        // survives (see `WindowKind::Plan`).
        if let WindowKind::Stall { .. } = self.window.kind {
            if now < self.window.until {
                self.mix.memo_invalidations += 1;
            }
            self.window.until = 0;
        }
        self.queues.enqueue(req, decoded, now);
    }

    /// True when no requests are queued or in flight and no completion
    /// is still to come. A deposited PIM ack keeps the controller busy
    /// through its data-completion cycle, as a MEM completion does while
    /// it waits in the heap; a due ack waiting in the schedule for its
    /// owner's drain ([`MemoryController::acks_pending`]) does not.
    pub fn is_idle(&self, now: Cycle) -> bool {
        self.queues.is_empty()
            && self.channel.quiescent(now)
            && self.switch.is_none()
            && self.completions.is_empty()
            && now >= self.acks_until
    }

    /// Appends all completions with `at <= now` to `out`, MEM and PIM
    /// alike, in `(at, id)` order. A caller that asks every cycle gets
    /// each completion on its own cycle.
    pub fn pop_completions_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        let start = out.len();
        while let Some(c) = self.pop_completion_before(now) {
            out.push(c);
        }
        let mems = out.len();
        while let Some(c) = self.acks.pop_due(now) {
            out.push(c);
        }
        if mems > start && out.len() > mems {
            out[start..].sort_unstable_by_key(|c| (c.at, c.req.id));
        }
    }

    /// Pops the earliest MEM completion (a fill or a writeback) with
    /// `at <= now`, if any. PIM acks leave through
    /// [`MemoryController::drain_acks_into`] instead.
    pub fn pop_completion_before(&mut self, now: Cycle) -> Option<Completion> {
        if self.completions.peek().is_some_and(|c| c.at <= now) {
            return self.completions.pop();
        }
        None
    }

    /// Appends the request of every PIM ack with `at <= limit` to `out`,
    /// in `(at, id)` order.
    pub fn drain_acks_into(&mut self, limit: Cycle, out: &mut Vec<Request>) {
        while let Some(c) = self.acks.pop_due(limit) {
            out.push(c.req);
        }
    }

    /// Whether any deposited PIM ack has not been drained yet.
    pub fn acks_pending(&self) -> bool {
        !self.acks.is_empty()
    }

    /// Deposits a PIM op's ack, due at its data-completion cycle `at`.
    fn deposit_ack(&mut self, req: Request, at: Cycle) {
        self.acks.push(Completion { req, at });
        self.acks_until = self.acks_until.max(at + 1);
        self.mix.acks_batched += 1;
    }

    /// The earliest cycle at or after `now` at which this controller can
    /// *do* something, or `None` while it is completely idle (no queued
    /// requests, no in-flight data, no pending switch, no MEM completion
    /// to hand off and no ack still to come). Inside a stall window the
    /// answer is the window's end (or an earlier MEM completion
    /// hand-off) rather than a perpetual `now` — so the probe no longer
    /// reports "busy forever" while a PIM block merely waits out a timing
    /// constraint. Deposited acks need no step: the owner drains them by
    /// cycle.
    pub fn next_activity_cycle(&self, now: Cycle) -> Option<Cycle> {
        if self.is_idle(now) {
            return None;
        }
        if now >= self.window.until {
            return Some(now);
        }
        match self.window.kind {
            // Plan ticks need per-tick service: an op issues every stride
            // and the virtual queue drains.
            WindowKind::Plan { .. } => Some(now),
            WindowKind::Stall { .. } => {
                let until = self.window.until;
                let next = self.completions.peek().map_or(until, |c| c.at.min(until));
                Some(next.max(now))
            }
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// The DRAM channel's command counters (for energy accounting).
    pub fn channel_stats(&self) -> pimsim_dram::ChannelStats {
        self.channel.stats()
    }

    /// Advances the controller by one DRAM cycle: a replay of the live
    /// window, or a full scheduling step.
    pub fn step(&mut self, now: Cycle) {
        if now < self.window.until {
            self.replay(now, 1);
        } else {
            self.mix.full_steps += 1;
            self.step_full(now);
        }
    }

    /// Replays the window's DRAM ticks `[first, first + ticks)`: every
    /// per-cycle stats integral advances exactly as
    /// [`MemoryController::step_full`] would have advanced it, and a
    /// plan's ops perform their issue effects at their own ticks. The
    /// window proved that nothing else happens in it: no other command
    /// issues, the policy's decision and the drain/mode state are frozen,
    /// and no refresh falls due. The work is O(events) — busy-bit
    /// expiries or planned issues — not O(ticks). Always inlined, so
    /// that [`MemoryController::step`]'s one-tick replay folds the span
    /// arithmetic away.
    #[inline(always)]
    fn replay(&mut self, first: Cycle, ticks: u64) {
        let last = first + (ticks - 1);
        debug_assert!(last < self.window.until, "replay past the window");
        // `channel.tick` would be a no-op: windows never open with a
        // refresh pending and never extend to `next_refresh`.
        debug_assert!(!self.channel.refresh_pending() && last < self.channel.next_refresh());
        self.stats.cycles += ticks;
        self.stats.mem_q_occupancy_sum += self.queues.mem_len() as u64 * ticks;
        match self.window.kind {
            WindowKind::Plan {
                mut next_issue,
                stride,
            } => {
                debug_assert!(self.switch.is_none() && self.mode == Mode::Pim);
                self.mix.burst_retired += ticks;
                self.stats.cycles_pim_mode += ticks;
                // Virtual PIM demand covers every bank and each op's data
                // is in flight past the window end, so the BLP mask is
                // full throughout.
                self.stats.blp_sum += self.channel.num_banks() as u64 * ticks;
                self.stats.active_cycles += ticks;
                // PIM occupancy is sampled before each tick's issue: a
                // planned op counts as queued through its own issue tick
                // and leaves for the `last - issue` ticks after it.
                let queued = (self.queues.pim_len() + self.window.ops.len()) as u64;
                self.stats.pim_q_occupancy_sum += queued * ticks;
                while next_issue <= last {
                    self.stats.pim_q_occupancy_sum -= last - next_issue;
                    self.issue_planned_op(next_issue);
                    next_issue += stride;
                }
                self.window.kind = WindowKind::Plan { next_issue, stride };
            }
            WindowKind::Stall { demand, mut busy } => {
                self.mix.memo_replayed += ticks;
                self.stats.pim_q_occupancy_sum += self.queues.pim_len() as u64 * ticks;
                if self.switch.is_some() {
                    self.stats.cycles_draining += ticks;
                } else {
                    match self.mode {
                        Mode::Mem => self.stats.cycles_mem_mode += ticks,
                        Mode::Pim => self.stats.cycles_pim_mode += ticks,
                    }
                }
                // The BLP mask is constant between busy-bit expiries: a
                // bank that expires at `at` is no longer busy at `at`.
                let mut t = first;
                while let Some(&(at, bit)) = self.window.expiries.last() {
                    if at > last {
                        break;
                    }
                    if at > t {
                        self.accrue_blp(demand | busy, at - t);
                        t = at;
                    }
                    busy &= !bit;
                    self.window.expiries.pop();
                }
                self.accrue_blp(demand | busy, last + 1 - t);
                self.window.kind = WindowKind::Stall { demand, busy };
            }
        }
    }

    /// The full per-cycle scheduling step: drain handling, policy
    /// consultation, command issue — and, when the cycle issued nothing,
    /// a stall window up to the earliest cycle anything can change.
    fn step_full(&mut self, now: Cycle) {
        self.channel.tick(now);
        self.stats.cycles += 1;
        self.stats.mem_q_occupancy_sum += self.queues.mem_len() as u64;
        self.stats.pim_q_occupancy_sum += self.queues.pim_len() as u64;
        self.integrate_blp(now);

        // 1. Complete an in-progress switch once the drain finishes.
        if self.drain(now) {
            return; // still draining: no commands issue
        }

        // 2. Consult the policy.
        self.refresh_view();
        let desired = {
            let view = self.queues.policy_view(now, self.mode, &self.open_rows);
            self.policy.desired_mode(&view)
        };
        if desired != self.mode {
            self.begin_switch(desired, now);
            // A drain may complete instantly if nothing is in flight.
            if self.drain(now) {
                return;
            }
        }

        // 3. Issue at most one command in the current mode. One that
        // issued changed the view: nothing is provably stable.
        let candidate_at = match self.mode {
            Mode::Mem => {
                self.stats.cycles_mem_mode += 1;
                self.issue_mem(now)
            }
            Mode::Pim => {
                self.stats.cycles_pim_mode += 1;
                self.issue_pim(now)
            }
        };
        if let Some(at) = candidate_at {
            // Nothing issues before a candidate command becomes legal or
            // the policy's decision may change.
            self.arm_stall(now, at.min(self.policy.decision_stable_until(now)));
        }
    }

    /// Completes the switch in progress once the channel is quiescent.
    /// While data is still in flight it counts a draining cycle and arms
    /// a stall until the data lands: no command issues and the policy is
    /// not consulted before. Returns whether the drain goes on. Inlined:
    /// every full step calls it.
    #[inline]
    fn drain(&mut self, now: Cycle) -> bool {
        let Some(sw) = self.switch else {
            return false;
        };
        if self.channel.quiescent(now) {
            self.finish_switch(sw, now);
            return false;
        }
        self.stats.cycles_draining += 1;
        self.arm_stall(now, self.channel.busy_until().unwrap_or(now));
        true
    }

    /// Opens a stall window after a full step that issued nothing, up to
    /// `wake` — the earliest cycle the step's outcome can change — or the
    /// next refresh, whichever comes first. None opens with stalls
    /// disabled or a refresh pending (the refresh drain must observe
    /// every cycle).
    fn arm_stall(&mut self, now: Cycle, wake: Cycle) {
        if !self.stall_enabled || self.channel.refresh_pending() {
            return;
        }
        let until = wake.min(self.channel.next_refresh());
        self.window.until = until;
        self.window.expiries.clear();
        let (mut demand, mut busy) = (0, 0);
        if until > now + 1 {
            // Capture the BLP-mask inputs: queue demand is frozen for the
            // window, and bank busy bits only expire as time passes.
            let n = self.channel.num_banks();
            demand = self.queues.mem_bank_mask();
            if self.queues.pim_len() > 0 {
                demand |= all_banks(n);
            }
            for b in 0..n {
                if let Some(at) = self.channel.bank_busy_until(b) {
                    if at > now {
                        self.window.expiries.push((at, 1 << b));
                        busy |= 1 << b;
                    }
                }
            }
            self.window
                .expiries
                .sort_unstable_by_key(|&(at, _)| std::cmp::Reverse(at));
        }
        self.window.kind = WindowKind::Stall { demand, busy };
    }

    /// Replays the whole DRAM-tick span `[first, first + ticks)` at once,
    /// through the routine a per-tick replay uses, in O(busy-bit
    /// expiries or planned issues) instead of O(ticks). Returns `true`
    /// with every stats integral and planned issue advanced exactly as
    /// per-tick stepping would have advanced them. Refuses — returning
    /// `false` with no state change — when:
    /// - the span reaches past the live window (or none is live);
    /// - a MEM completion falls due in it: the owner must pop it at its
    ///   exact tick;
    /// - the controller is idle by the span's last tick: the owner skips
    ///   idle ticks without stepping them, so they accrue nothing. A plan
    ///   never is — its deposited acks keep it busy past its window.
    pub fn replay_span(&mut self, first: Cycle, ticks: u64) -> bool {
        if ticks == 0 {
            return true;
        }
        let last = first + (ticks - 1);
        if last >= self.window.until
            || self.completions.peek().is_some_and(|c| c.at <= last)
            || self.is_idle(last)
        {
            return false;
        }
        if let WindowKind::Plan { .. } = self.window.kind {
            self.mix.plan_spans_replayed += 1;
        }
        self.replay(first, ticks);
        true
    }

    /// Whether this controller holds MEM work: a MEM request queued, or
    /// a MEM fill or writeback in flight, which must be popped at its
    /// exact tick. PIM acks are not MEM work: they are deposited
    /// timestamped and *pulled* by the owner's delivery stage, so an
    /// owner may let a controller without MEM work lag, to be replayed
    /// later through the live code path (DESIGN.md §4k).
    pub fn holds_mem_work(&self) -> bool {
        self.queues.mem_len() > 0 || !self.completions.is_empty()
    }

    /// The earliest cycle a *new* enqueue arriving at DRAM tick `at`
    /// could produce an observable completion: an arrival cannot issue
    /// before its own tick, and while a burst plan is live it cannot
    /// issue before the plan's end either — plans survive enqueues
    /// unconditionally. A stall offers no such cover (the enqueue voids
    /// it and the freed controller may issue immediately), so the bound
    /// deliberately ignores a stall window's end. Any issue then completes
    /// no earlier than `L_min = min(t_cl, t_wl + burst)` after its issue
    /// tick: reads complete at `t_cl (+ burst)`, writes and PIM writes at
    /// `t_wl + burst`, PIM reads at `t_cl`. The memory stage's
    /// pull-driven ack drain (DESIGN.md §4k) uses it to skip lagging
    /// partitions that cannot owe a due ack yet.
    pub fn arrival_bound(&self, at: Cycle) -> Cycle {
        let (_, read_lat, write_lat) = self.channel.pim_burst_timing();
        let l_min = read_lat.min(write_lat);
        debug_assert!(l_min >= 1, "a zero-latency completion breaks the pull skip");
        let plan_end = match self.window.kind {
            WindowKind::Plan { .. } => self.window.until,
            WindowKind::Stall { .. } => 0,
        };
        at.max(plan_end).saturating_add(l_min)
    }

    fn integrate_blp(&mut self, now: Cycle) {
        // Bank-level parallelism counts banks with at least one
        // outstanding request (queued or with data in flight), averaged
        // over cycles where the DRAM is servicing anything — the standard
        // BLP definition the paper uses in Figure 4c. A pending PIM
        // request targets every bank (lock-step execution).
        let n = self.channel.num_banks();
        let mut mask = self.queues.mem_bank_mask();
        if self.queues.pim_len() > 0 {
            mask |= all_banks(n);
        }
        for b in 0..n {
            if self.channel.bank_busy(b, now) {
                mask |= 1 << b;
            }
        }
        self.accrue_blp(mask, 1);
    }

    /// Accrues `ticks` cycles with the banks of `mask` busy to the BLP
    /// integrals; cycles with no busy bank are not active.
    fn accrue_blp(&mut self, mask: u64, ticks: u64) {
        let banks = u64::from(mask.count_ones());
        if banks > 0 {
            self.stats.blp_sum += banks * ticks;
            self.stats.active_cycles += ticks;
        }
    }

    /// Brings the policy-facing state up to date: the open-row view
    /// (marking the candidate-index banks whose row moved) and then the
    /// MEM candidate index itself.
    fn refresh_view(&mut self) {
        let epoch = self.channel.row_epoch();
        if epoch != self.open_rows_epoch {
            self.open_rows_epoch = epoch;
            let mut moved = 0u64;
            for (b, seen) in self.open_rows.iter_mut().enumerate() {
                let row = self.channel.open_row(b);
                moved |= u64::from(*seen != row) << b;
                *seen = row;
            }
            self.queues.mark_mem_dirty(moved);
        }
        self.queues
            .sync_mem_index(self.policy.as_ref(), &self.open_rows);
    }

    fn begin_switch(&mut self, target: Mode, now: Cycle) {
        debug_assert_ne!(target, self.mode);
        self.switch = Some(SwitchInProgress {
            target,
            started: now,
        });
    }

    fn finish_switch(&mut self, sw: SwitchInProgress, now: Cycle) {
        if self.mode == Mode::Mem && sw.target == Mode::Pim {
            self.stats.switches_mem_to_pim += 1;
            self.stats.mem_drain_latency_sum += now - sw.started;
            // Remember which rows the switch will close, to attribute
            // later re-opens to this switch.
            for b in 0..self.channel.num_banks() {
                self.rows_at_switch[b] = self.channel.open_row(b);
            }
        }
        self.stats.switches += 1;
        self.mode = sw.target;
        self.switch = None;
        self.policy.on_switch_complete(sw.target, now);
    }

    /// MEM-mode issue: rank the banks by their best `(class, age)`
    /// candidate (cached per bank by the MEM candidate index, DESIGN.md
    /// §4g), then issue the command of the best-ranked bank whose command
    /// is legal now.
    ///
    /// Returns `None` when a command issued, else `Some(c)` where `c` is
    /// the earliest cycle any current candidate's chosen command becomes
    /// legal (`Cycle::MAX` with no candidates) — a stall window's wake-up
    /// event. At that cycle the rank walk re-runs over the identical
    /// candidate set and issues exactly what per-cycle stepping would
    /// have.
    fn issue_mem(&mut self, now: Cycle) -> Option<Cycle> {
        if self.queues.mem_len() == 0 {
            return Some(Cycle::MAX);
        }
        // `desired_mode` may have moved the policy's class table.
        self.refresh_view();
        // Banks the policy's switch logic has stalled (FR-FCFS conflict
        // bits) issue nothing.
        let masked = self.policy.masked_banks();
        let mut order = std::mem::take(&mut self.scratch_order);
        self.queues.mem_index().ranked(masked, &mut order);
        debug_assert_eq!(
            self.indexed_candidates(&order),
            self.scanned_candidates(masked),
            "MEM candidate index diverged from a full queue scan"
        );
        let mut earliest = Cycle::MAX;
        let mut issued = false;
        for &key in &order {
            let bank = key_bank(key);
            let c = self.queues.mem_index().candidate(bank);
            let cmd = if c.hit {
                match (c.write, self.page_policy == PagePolicy::Closed) {
                    (false, false) => DramCommand::Read { bank },
                    (false, true) => DramCommand::ReadAuto { bank },
                    (true, false) => DramCommand::Write { bank },
                    (true, true) => DramCommand::WriteAuto { bank },
                }
            } else if self.open_rows[bank].is_some() {
                DramCommand::Pre { bank }
            } else {
                DramCommand::Act { bank, row: c.row }
            };
            // Legal now iff its earliest issue cycle is now (the contract
            // `earliest_issue_matches_brute_force_scan` pins).
            match self.channel.earliest_issue(cmd, now) {
                Some(at) if at == now => {
                    self.issue_mem_command(cmd, key_age(key), now);
                    issued = true;
                    break;
                }
                Some(at) => earliest = earliest.min(at),
                None => {}
            }
        }
        self.scratch_order = order;
        if issued {
            None
        } else {
            Some(earliest)
        }
    }

    /// Issues `cmd`, chosen for the queued MEM request of age `age`.
    fn issue_mem_command(&mut self, cmd: DramCommand, age: u64, now: Cycle) {
        match cmd {
            DramCommand::Act { bank, row } => {
                self.channel.issue(cmd, now);
                self.note_mem_act(age, bank, row);
            }
            DramCommand::Pre { .. } => {
                self.channel.issue(cmd, now);
            }
            _ => {
                let done = self.channel.issue(cmd, now).expect("column command");
                let q = self.queues.remove_mem(self.queues.mem_position(age));
                self.note_mem_issued(&q, now);
                self.stats
                    .mem_latency
                    .record(done.saturating_sub(q.arrived));
                self.completions.push(Completion {
                    req: q.req,
                    at: done,
                });
            }
        }
    }

    /// The ranked candidates as the index caches them: `(rank key, row,
    /// hit, write)`, best first.
    fn indexed_candidates(&self, order: &[u64]) -> Vec<(u64, u32, bool, bool)> {
        order
            .iter()
            .map(|&key| {
                let c = self.queues.mem_index().candidate(key_bank(key));
                (c.key, c.row, c.hit, c.write)
            })
            .collect()
    }

    /// The same list from a full scan of the MEM queue, one policy call
    /// per entry: the reference the candidate index is cross-checked
    /// against in debug builds.
    fn scanned_candidates(&self, masked: u64) -> Vec<(u64, u32, bool, bool)> {
        let mut best: Vec<Option<(u64, u32, bool, bool)>> = vec![None; self.channel.num_banks()];
        for q in self.queues.mem() {
            let bank = q.decoded.bank as usize;
            if masked >> bank & 1 == 1 {
                continue;
            }
            let hit = self.open_rows[bank] == Some(q.decoded.row);
            let key = rank_key(self.policy.mem_class(q.req.app, hit), q.age, bank);
            if best[bank].is_none_or(|b| key < b.0) {
                let write = q.req.kind == RequestKind::MemWrite;
                best[bank] = Some((key, q.decoded.row, hit, write));
            }
        }
        let mut ranked: Vec<_> = best.into_iter().flatten().collect();
        ranked.sort_unstable();
        ranked
    }

    fn note_mem_act(&mut self, age: u64, bank: usize, row: u32) {
        let idx = self.queues.mem_position(age);
        self.queues.mem_mut()[idx].opened_row = true;
        // Attribute the conflict to a mode switch if the switch closed this
        // very row (Figure 10b).
        if self.rows_at_switch[bank] == Some(row) {
            self.stats.switch_conflicts += 1;
        }
        self.rows_at_switch[bank] = None;
    }

    fn note_mem_issued(&mut self, q: &QueuedRequest, now: Cycle) {
        self.stats.mem_served += 1;
        // Hit/miss is per serviced request: a request whose service needed
        // one or more activates is a miss, anything else hit the open row.
        if !q.opened_row {
            self.stats.mem_row_hits += 1;
        } else {
            self.stats.mem_row_misses += 1;
        }
        let bypassed = self
            .queues
            .oldest_pim_age()
            .is_some_and(|pim_age| pim_age < q.age);
        self.policy.on_mem_issued(q, bypassed, now);
    }

    /// PIM-mode issue: FCFS on the PIM queue; all banks move in lock-step.
    ///
    /// Returns `None` when a command issued, else `Some(c)` with the
    /// earliest cycle the head's next command becomes legal (`Cycle::MAX`
    /// with an empty queue or a refresh in the way).
    fn issue_pim(&mut self, now: Cycle) -> Option<Cycle> {
        let Some(head) = self.queues.pim().front().copied() else {
            return Some(Cycle::MAX);
        };
        let cmd = head
            .req
            .kind
            .pim()
            .copied()
            .expect("PIM queue holds PIM requests");
        if self.channel.all_banks_open_to(cmd.row) {
            let op = DramCommand::PimOp {
                writes_row: cmd.op == PimOpKind::RfStore,
            };
            if self.channel.can_issue(op, now) {
                if self.burst_enabled && self.try_retire_burst(cmd.row, now) {
                    return None;
                }
                let done = self.channel.issue(op, now).expect("column command");
                let q = self.queues.pop_pim().expect("head exists");
                let bypassed = self
                    .queues
                    .oldest_mem_age()
                    .is_some_and(|mem_age| mem_age < q.age);
                self.note_pim_issued(&q, done, bypassed, now);
                self.deposit_ack(q.req, done);
                return None;
            }
            return Some(self.channel.earliest_issue(op, now).unwrap_or(Cycle::MAX));
        }
        // Need to (re)open cmd.row on all banks: precharge any bank open to
        // another row, then all-bank activate.
        if self.channel.any_bank_open() {
            let pre = DramCommand::PreAll;
            if self.channel.can_issue(pre, now) {
                self.channel.issue(pre, now);
                return None;
            }
            return Some(self.channel.earliest_issue(pre, now).unwrap_or(Cycle::MAX));
        }
        let act = DramCommand::PimActAll { row: cmd.row };
        if self.channel.can_issue(act, now) {
            self.channel.issue(act, now);
            self.queues.mark_pim_head_opened();
            return None;
        }
        Some(self.channel.earliest_issue(act, now).unwrap_or(Cycle::MAX))
    }

    /// Attempts to retire a homogeneous run at the head of the PIM queue
    /// as one closed-form burst plan (DESIGN.md §4h). Called only on a
    /// cycle where the policy chose PIM and the head op is legal to issue
    /// right now, so the run's first op is already sanctioned. Returns
    /// `true` when a plan of at least two ops was created (the head op
    /// included), `false` — with no state change — when the policy
    /// declines, the same-row prefix is too short, or a refresh cuts the
    /// window down to a single op.
    fn try_retire_burst(&mut self, head_row: u32, now: Cycle) -> bool {
        self.refresh_view();
        let policy_run = {
            let view = self.queues.policy_view(now, self.mode, &self.open_rows);
            self.policy.stable_pim_run(&view)
        };
        if policy_run < 2 {
            return false;
        }
        let cap = usize::try_from(policy_run).unwrap_or(usize::MAX);
        // The channel state is only closed-form while the open row never
        // moves: the burst is the same-row prefix of the queue.
        let mut n = self
            .queues
            .pim()
            .iter()
            .take(cap)
            .take_while(|q| q.req.kind.pim().is_some_and(|c| c.row == head_row))
            .count();
        // Every issue in the series must land strictly before the next
        // refresh: at `next_refresh` the per-cycle path would set
        // `refresh_pending` and stall the queue.
        let (stride, _, _) = self.channel.pim_burst_timing();
        let nr = self.channel.next_refresh();
        if nr != Cycle::MAX {
            debug_assert!(nr > now, "refresh due but head op deemed legal");
            let max_n = ((nr - 1 - now) / stride + 1) as usize;
            n = n.min(max_n);
        }
        if n < 2 {
            return false;
        }
        self.retire_burst(n, now);
        true
    }

    /// Retires the leading `n` PIM ops analytically: issues the whole
    /// series on the channel in one bulk state application and opens the
    /// plan window that [`MemoryController::replay`] drains. The issue
    /// series is `s_k = now + k · max(tCCDl, 1)`; per-op completions come
    /// from the channel ([`Channel::issue_pim_burst`]).
    ///
    /// Only the *channel* state, the queue pops and the ack deposits are
    /// eager (the first two hidden behind the plan window — the channel
    /// is not consulted and the queue occupancy is virtualized until it
    /// closes — and each ack invisible until its cycle). Every other
    /// per-op *observable* — stats counters, latency sample, policy hook,
    /// engine op — is deferred to the op's analytic issue cycle via the
    /// window's ops, so stats snapshots taken mid-plan match per-cycle
    /// stepping bit for bit. The head op issues right here: its issue
    /// cycle is the creation cycle itself.
    fn retire_burst(&mut self, n: usize, now: Cycle) {
        let (stride, _, _) = self.channel.pim_burst_timing();
        // Fixed for the whole span: MEM issues nothing in PIM mode and
        // arrivals are strictly younger than the current oldest.
        let oldest_mem = self.queues.oldest_mem_age();
        let mut writes = std::mem::take(&mut self.burst_writes);
        writes.clear();
        writes.extend(
            self.queues
                .pim()
                .iter()
                .take(n)
                .map(|q| q.req.kind.pim().is_some_and(|c| c.op == PimOpKind::RfStore)),
        );
        let mut dones = std::mem::take(&mut self.burst_completions);
        dones.clear();
        self.channel.issue_pim_burst(now, &writes, &mut dones);
        debug_assert!(self.window.ops.is_empty(), "previous plan not drained");
        for &done in dones.iter() {
            let q = self.queues.pop_pim().expect("planned ops are queued");
            let bypassed = oldest_mem.is_some_and(|mem_age| mem_age < q.age);
            // The whole plan's completions are known right now, so the
            // plan window never ticks to produce them.
            self.deposit_ack(q.req, done);
            self.window.ops.push_back((q, done, bypassed));
        }
        self.burst_writes = writes;
        self.burst_completions = dones;
        self.window.until = now + (n as Cycle - 1) * stride + 1;
        self.window.kind = WindowKind::Plan {
            next_issue: now + stride,
            stride,
        };
        self.mix.bursts_planned += 1;
        self.mix.burst_ops += n as u64;
        self.issue_planned_op(now);
    }

    /// Performs the next planned op's issue effects at its analytic
    /// issue cycle `now` — exactly what the per-cycle path does when it
    /// issues a `PimOp`, minus the channel state transition (already
    /// applied in bulk at plan creation; the per-op command tally is
    /// re-attributed here via [`Channel::tally_pim_op`]) and the ack
    /// deposit (made at plan creation).
    fn issue_planned_op(&mut self, now: Cycle) {
        let (q, done, bypassed) = self
            .window
            .ops
            .pop_front()
            .expect("plan window outlived its ops");
        self.channel.tally_pim_op();
        self.note_pim_issued(&q, done, bypassed, now);
    }

    /// A PIM op's observable issue effects at its issue cycle `now`,
    /// whether it issued alone or in a plan: the engine op, the served
    /// and row hit/miss counters, the policy hook and the latency sample
    /// (`done` is its data-completion cycle). Always inlined: a call on
    /// every PIM issue cost about 1 % on saturated PIM.
    #[inline(always)]
    fn note_pim_issued(&mut self, q: &QueuedRequest, done: Cycle, bypassed: bool, now: Cycle) {
        let cmd = q.req.kind.pim().expect("PIM queue holds PIM requests");
        self.pim_engine
            .execute(cmd)
            .expect("PIM RF discipline violated by workload");
        self.stats.pim_served += 1;
        if q.opened_row {
            self.stats.pim_row_misses += 1;
        } else {
            self.stats.pim_row_hits += 1;
        }
        self.policy.on_pim_issued(q, bypassed, now);
        self.stats
            .pim_latency
            .record(done.saturating_sub(q.arrived));
    }
}

/// The mask with one bit per bank of an `n`-bank channel (`1 <= n <= 64`;
/// `(1 << n) - 1` would overflow at 64).
fn all_banks(n: usize) -> u64 {
    debug_assert!((1..=MAX_BANKS).contains(&n));
    u64::MAX >> (MAX_BANKS - n)
}
