//! The full-system simulator: a thin scheduler sequencing the pipeline
//! stages of [`crate::pipeline`] — SM issue → request crossbar → memory
//! partitions (L2 + MC + DRAM) → reply crossbar → SM completion — across
//! the GPU and DRAM clock domains of Table I.
//!
//! The main loop is event-driven where it can be: when no SM is due to
//! issue, both networks are empty and no memory partition can act, the
//! simulator jumps its clocks directly to the next cycle at which one of
//! them can (see [`Simulator::set_fast_forward`]), instead of ticking
//! waiting components one cycle at a time. The skip is exact —
//! fast-forwarded runs are bit-identical to lock-step runs — because the
//! skipped cycles mutate nothing but the clocks and the stalled
//! controllers' stats integrals (replayed in bulk), and the clock
//! coupling uses exact integer arithmetic
//! ([`SystemConfig::dram_clock_ratio`]).

use std::time::Instant;

use pimsim_gpu::KernelModel;
use pimsim_types::{Cycle, SystemConfig};

use crate::partition::Partition;
use crate::pipeline::{
    check_kernel_completion, CompletionStage, IssueCtx, IssueStage, MemoryStage, ReplyNet,
    ReplyNetCtx, RequestNet,
};

pub use crate::pipeline::{CycleBudgetExceeded, MountedKernel};

/// Cumulative wall-clock time per pipeline stage, gathered while stage
/// profiling is on (see [`Simulator::set_stage_profiling`]). Lets the
/// hot-loop benchmark report where a run's wall time actually goes
/// without an external profiler.
///
/// Only stepped cycles are timed; fast-forward jumps cost no stage time
/// and are excluded.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageProfile {
    /// SM issue stage.
    pub issue_ns: u64,
    /// Request crossbar (injection, arbitration, ejection).
    pub request_net_ns: u64,
    /// Memory stage: L2 front halves plus all DRAM ticks of the cycle.
    pub memory_ns: u64,
    /// Reply crossbar.
    pub reply_net_ns: u64,
    /// Completion bookkeeping: PIM acks, reply retirement, kernel
    /// restart checks.
    pub completion_ns: u64,
    /// GPU cycles actually stepped while profiling (skipped spans are
    /// not counted).
    pub stepped_cycles: u64,
}

impl StageProfile {
    /// Total time across all five stages.
    pub fn total_ns(&self) -> u64 {
        self.issue_ns
            + self.request_net_ns
            + self.memory_ns
            + self.reply_net_ns
            + self.completion_ns
    }

    /// `(name, ns)` pairs in pipeline order, for reporting.
    pub fn stages(&self) -> [(&'static str, u64); 5] {
        [
            ("issue", self.issue_ns),
            ("request_net", self.request_net_ns),
            ("memory", self.memory_ns),
            ("reply_net", self.reply_net_ns),
            ("completion", self.completion_ns),
        ]
    }
}

/// How many times each pipeline stage actually ran (its code was
/// entered this cycle, as opposed to being skipped by a gate). The first
/// two stages run every stepped cycle; the memory stage counts cycles on
/// which a partition stepped live, and the tail stages cycles they ran.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StageTicks {
    pub issue: u64,
    pub request_net: u64,
    pub memory: u64,
    pub reply_net: u64,
    pub completion: u64,
}

/// The full-system simulator.
///
/// # Example
///
/// ```no_run
/// use pimsim_core::policy::PolicyKind;
/// use pimsim_sim::Simulator;
/// use pimsim_types::SystemConfig;
/// use pimsim_workloads::{gpu_kernel, rodinia::GpuBenchmark};
///
/// let cfg = SystemConfig::default();
/// let mut sim = Simulator::new(cfg, PolicyKind::FrFcfs);
/// let k = gpu_kernel(GpuBenchmark(3), 80, 0.2);
/// sim.mount(Box::new(k), (0..80).collect(), false, false);
/// let cycles = sim.run_until_all_first_done(50_000_000).unwrap();
/// assert!(cycles > 0);
/// ```
pub struct Simulator {
    pub(crate) cfg: SystemConfig,
    issue: IssueStage,
    request_net: RequestNet,
    pub(crate) memory: MemoryStage,
    reply_net: ReplyNet,
    completion: CompletionStage,
    pub(crate) kernels: Vec<MountedKernel>,
    /// Event-driven idle-span skipping (on by default; see
    /// [`Simulator::set_fast_forward`]).
    pub(crate) fast_forward: bool,
    /// Built by [`Simulator::reference`]: stages 5 and 6 run every cycle.
    reference: bool,
    /// Whether a PIM kernel is mounted (only PIM requests are acked).
    pim_mounted: bool,
    /// Number of idle-span jumps taken.
    skips: u64,
    /// GPU cycles covered by those jumps (not stepped one by one).
    skipped_cycles: u64,
    /// Per-stage run counts (see [`StageTicks`]).
    pub(crate) stage_ticks: StageTicks,
    /// Per-stage wall-time accumulators; `None` (the default) keeps the
    /// hot loop free of timer reads.
    profile: Option<Box<StageProfile>>,
}

impl Simulator {
    /// Builds an empty simulator; mount kernels before running.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: SystemConfig, policy: pimsim_core::PolicyKind) -> Self {
        cfg.validate().expect("invalid system configuration");
        Simulator {
            issue: IssueStage::new(cfg.gpu.num_sms, cfg.gpu.max_outstanding_mem_per_sm),
            request_net: RequestNet::new(&cfg),
            memory: MemoryStage::new(&cfg, policy),
            reply_net: ReplyNet::new(&cfg),
            completion: CompletionStage::new(),
            kernels: Vec::new(),
            fast_forward: true,
            reference: false,
            pim_mounted: false,
            skips: 0,
            skipped_cycles: 0,
            stage_ticks: StageTicks::default(),
            profile: None,
            cfg,
        }
    }

    /// The reference simulator: [`Simulator::new`] with every fast path
    /// off — fast-forward, partition lag, each controller's stall memo
    /// and burst plans, the issue stage's wake table and the reply gate —
    /// so every stage ticks every cycle through the plain per-tick code
    /// (DESIGN.md §6). Every fast path must match it exactly, down to the
    /// cycle of each completion.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn reference(cfg: SystemConfig, policy: pimsim_core::PolicyKind) -> Self {
        let mut sim = Self::new(cfg, policy);
        sim.reference = true;
        sim.set_fast_forward(false);
        sim.set_partition_lag(false);
        sim.issue.poll_every_cycle = true;
        for c in 0..sim.memory.channel_count() {
            let mc = &mut sim.memory.partition_mut(c).mc;
            mc.set_stall_enabled(false);
            mc.set_burst_enabled(false);
        }
        sim
    }

    /// Enables or disables per-stage wall-time profiling (off by
    /// default). Enabling resets the accumulators. Profiling reads the
    /// monotonic clock several times per stepped cycle, so keep it off
    /// for throughput measurements and use a dedicated profiled pass.
    pub fn set_stage_profiling(&mut self, on: bool) {
        self.profile = on.then(Box::default);
    }

    /// The accumulated stage profile, if profiling is on.
    pub fn stage_profile(&self) -> Option<&StageProfile> {
        self.profile.as_deref()
    }

    /// Stamps the time since `*mark` into the field `sel` picks, and
    /// advances the mark. No-op (two `None` checks) when profiling is
    /// off.
    #[inline]
    fn lap(
        mark: &mut Option<Instant>,
        prof: &mut Option<Box<StageProfile>>,
        sel: impl FnOnce(&mut StageProfile) -> &mut u64,
    ) {
        if let (Some(t), Some(p)) = (mark.as_mut(), prof.as_mut()) {
            let now = Instant::now();
            *sel(p) += u64::try_from(now.duration_since(*t).as_nanos()).unwrap_or(u64::MAX);
            *t = now;
        }
    }

    /// Enables or disables event-driven idle-span skipping (on by
    /// default). With it off, the simulator ticks every GPU cycle in
    /// lock-step. Both modes produce bit-identical results; the flag
    /// exists for measuring the speedup (`ablation`).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Enables or disables partition lag (on by default). With it on, a
    /// partition that holds no MEM work lags the memory stage until it
    /// is next observed instead of ticking; its PIM acks, deposited in
    /// its controller's schedule at issue, are pulled at delivery, each
    /// at its exact cycle (DESIGN.md §4k). With it off, every partition
    /// with work steps live on every visit. Both modes produce
    /// bit-identical observables (cycle counts, McStats, goldens); only
    /// the step mix's tick and replay counters differ. The flag exists
    /// for measuring what lag is worth (`ablation`).
    pub fn set_partition_lag(&mut self, on: bool) {
        self.memory.set_lag(on);
    }

    /// Catches every lagging partition up to the memory stage's clock.
    /// Must run before stats are harvested or partitions are inspected
    /// out of band — the run loop calls it on both exits and the public
    /// [`Simulator::step`] after every cycle, so no observer sees a
    /// partition whose lagged visits are unaccounted.
    pub(crate) fn sync_memory(&mut self) {
        self.memory.sync();
    }

    /// `(jumps taken, GPU cycles covered by jumps)` — how much of the run
    /// the event-driven path fast-forwarded over.
    pub fn fast_forward_stats(&self) -> (u64, u64) {
        (self.skips, self.skipped_cycles)
    }

    /// Kernel completions retired so far (PIM acks + MEM replies).
    pub(crate) fn completion_stage_delivered(&self) -> u64 {
        self.completion.delivered()
    }

    /// Mounts `model` on the given global SM indices.
    ///
    /// # Panics
    ///
    /// Panics if an SM is already occupied, out of range, or the SM count
    /// does not match the model's slot count.
    pub fn mount(
        &mut self,
        model: Box<dyn KernelModel>,
        sms: Vec<usize>,
        is_pim: bool,
        restart: bool,
    ) -> usize {
        assert_eq!(
            sms.len(),
            model.num_slots(),
            "SM count must match the kernel's slots"
        );
        let idx = self.kernels.len();
        self.pim_mounted |= is_pim;
        for (slot, &sm) in sms.iter().enumerate() {
            self.issue.occupy(sm, idx, slot);
        }
        self.kernels.push(MountedKernel {
            model,
            sms,
            is_pim,
            restart,
            run_started: self.gpu_cycles(),
            first_run_cycles: None,
            runs: 0,
            icnt_injections: 0,
        });
        idx
    }

    /// The mounted kernels.
    pub fn kernels(&self) -> &[MountedKernel] {
        &self.kernels
    }

    /// The memory partitions (for stats).
    pub fn partitions(&self) -> impl Iterator<Item = &Partition> {
        self.memory.iter()
    }

    /// The partition serving channel `c` (for stats).
    pub fn partition(&self, c: usize) -> &Partition {
        self.memory.get(c)
    }

    /// Does nothing: every simulation steps its memory partitions on
    /// its own thread, and parallelism runs across simulations
    /// ([`crate::experiments::sweep::parallel_map`]). Kept so existing
    /// callers still build.
    pub fn set_memory_threads(&mut self, _threads: usize) {}

    /// GPU cycles elapsed.
    pub fn gpu_cycles(&self) -> u64 {
        self.memory.clock().gpu_now()
    }

    /// DRAM cycles elapsed.
    pub fn dram_cycles(&self) -> u64 {
        self.memory.clock().dram_now()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Total flits in flight on the request path (buffered in the
    /// crossbar's input queues).
    pub fn request_noc_occupancy(&self) -> usize {
        self.request_net.occupancy()
    }

    /// Request-network counters.
    pub fn request_noc_stats(&self) -> pimsim_noc::CrossbarStats {
        self.request_net.stats()
    }

    /// One GPU cycle of the whole system. The stage order is fixed:
    /// issue → request net → L2 → DRAM ticks → PIM acks → reply net →
    /// reply completions → kernel bookkeeping.
    ///
    /// The PIM-ack stage runs on every cycle while a PIM kernel is
    /// mounted, and the reply stage only on cycles where a reply exists
    /// (the reply gate; DESIGN.md §4i). [`Simulator::reference`] runs
    /// both every cycle.
    ///
    /// Every partition is current afterwards, so [`Simulator::partition`],
    /// [`Simulator::partitions`] and the merged stats read the state the
    /// eager simulator would show.
    pub fn step(&mut self) {
        self.advance();
        self.sync_memory();
    }

    /// [`Simulator::step`] without the closing sync: partitions may lag
    /// the memory stage afterwards (DESIGN.md §4k). The run loops step
    /// with it and sync once at exit.
    pub(crate) fn advance(&mut self) {
        let now = self.gpu_cycles();
        let mut prof = self.profile.take();
        let mut mark = prof.as_ref().map(|_| Instant::now());

        // 1. SM issue stage.
        self.issue.step(
            now,
            IssueCtx {
                kernels: &mut self.kernels,
                net: &mut self.request_net,
                inflight: self.completion.inflight_mut(),
                mapper: self.memory.mapper(),
            },
        );
        self.stage_ticks.issue += 1;
        Self::lap(&mut mark, &mut prof, |p| &mut p.issue_ns);

        // 2. Request network ejects into partition ingress ports. Each
        // grant catches its partition up on the visits it lagged through
        // first (`MemoryStage::partition_mut`), so it lands at the exact
        // live state.
        self.request_net.step(now, &mut self.memory);
        self.stage_ticks.request_net += 1;
        Self::lap(&mut mark, &mut prof, |p| &mut p.request_net_ns);

        // 3+4. The memory stage's whole cycle: L2 front halves (GPU
        // clock) plus every pending DRAM tick (exact integer rational
        // coupling), in one pass over the active partitions, and the
        // clocks' advance past it. A partition that holds no MEM work
        // lags through the visit instead and is caught up, through the
        // exact live code paths, where its state is next observed
        // (DESIGN.md §4k). A cycle counts as a memory-stage tick only if
        // some partition stepped live: that asymmetry *is* the measured
        // win (the `ticks_memory` gate).
        if self.memory.step_cycle() {
            self.stage_ticks.memory += 1;
        }
        Self::lap(&mut mark, &mut prof, |p| &mut p.memory_ns);

        // 5. PIM acks (credit return, out-of-band), on every cycle
        // while a PIM kernel is mounted — only PIM requests are acked —
        // so each ack reaches its kernel on the cycle it becomes due.
        let mut completion_ticked = false;
        if self.reference || self.pim_mounted {
            // Acks become observable once their DRAM cycle has been
            // *serviced*: `dram_cycles()` is the next unserviced tick (the
            // span above ended at `dram_cycles() - 1`), so that is the
            // drain limit. Each ack has waited in its controller's
            // schedule since its op issued. Production is pull-driven:
            // the drain catches up lagging partitions that could owe a
            // due ack first.
            let ack_limit = self.dram_cycles().saturating_sub(1);
            self.completion.collect_acks(
                &mut self.memory,
                &mut self.kernels,
                &mut self.issue,
                now,
                ack_limit,
            );
            completion_ticked = true;
        }
        Self::lap(&mut mark, &mut prof, |p| &mut p.completion_ns);

        // 6. Reply network: inject from partitions, deliver to SMs.
        // Skipped when no reply is queued in any partition wire
        // (`replies_pending`, exact at all times: set by the memory step,
        // written back by the reply network's own drain) and none is in
        // flight inside the crossbar — then injection, arbitration, and
        // retirement would all be no-ops.
        let reply_active =
            self.reference || self.memory.replies_pending() || self.reply_net.has_traffic();
        if reply_active {
            let mut delivered = self.completion.begin_replies();
            self.reply_net.step(
                now,
                ReplyNetCtx {
                    memory: &mut self.memory,
                    delivered: &mut delivered,
                },
            );
            self.stage_ticks.reply_net += 1;
            Self::lap(&mut mark, &mut prof, |p| &mut p.reply_net_ns);
            self.completion
                .finish_replies(delivered, &mut self.kernels, &mut self.issue, now);
            completion_ticked = true;
        } else {
            // The skip is licensed by the crossbar's quiet-span
            // contract: an empty arbitration cycle is a no-op.
            let quiet = self.reply_net.skip_quiet_span(now, 1);
            debug_assert!(
                quiet,
                "reply gate said quiet but the crossbar buffers flits"
            );
            Self::lap(&mut mark, &mut prof, |p| &mut p.reply_net_ns);
        }
        if completion_ticked {
            self.stage_ticks.completion += 1;
        }

        // 7. Kernel completion / restart bookkeeping.
        check_kernel_completion(&mut self.kernels, &mut self.issue, now);
        Self::lap(&mut mark, &mut prof, |p| &mut p.completion_ns);

        if let Some(p) = prof.as_mut() {
            p.stepped_cycles += 1;
        }
        self.profile = prof;
    }

    /// Attempts to jump the clocks over a provably quiet span, stopping
    /// at `limit`. Returns whether any cycles were skipped.
    ///
    /// The jump lands on the first cycle at which some component can
    /// act: the issue stage's next due SM (its wake table, fed by the
    /// per-slot [`KernelModel::next_issue_cycle`] bounds), the memory
    /// stage's next L2 release (GPU clock) or controller horizon (DRAM
    /// clock, via
    /// [`crate::pipeline::ClockCoupler::max_jump_for_dram_bound`]), or
    /// `limit`. Requests may be in flight throughout — queued in a
    /// stalled controller, moving as DRAM data, or waiting in an L2 hit
    /// pipeline.
    ///
    /// Soundness: the jump is taken only when both crossbars are empty,
    /// no reply waits in a partition wire, no SM is due, and every
    /// partition's ports and wires are empty. Then a lock-step
    /// [`Simulator::step`] before the landing cycle mutates nothing but
    /// the clocks and the controllers' stats integrals: issue polls no
    /// SM, the crossbars add zero to their occupancy integrals without
    /// touching arbiter state, the L2 front halves find nothing to do,
    /// and no DRAM tick reaches a cycle where a controller would issue a
    /// command, pop a completion, or service a refresh — those are
    /// replayed exactly by [`MemoryStage::quiet_replay_all`] after the
    /// jump.
    ///
    /// The probes run cheapest first — crossbar occupancy, the reply
    /// summary, the issue stage's due cycle, pending PIM acks — so a busy
    /// cycle is refused before the memory stage's horizon walk catches
    /// lagging partitions up, which would cut their lags short.
    pub(crate) fn skip_idle_span(&mut self, limit: Cycle) -> bool {
        let now = self.gpu_cycles();
        if now >= limit
            || self.request_net.occupancy() > 0
            || self.reply_net.horizon(now, &self.memory).is_some()
        {
            return false;
        }
        let issue_due = self.issue.next_activity_cycle(now);
        if issue_due.is_some_and(|at| at <= now) || self.memory.acks_pending() {
            return false;
        }
        // The walk catches each partition up before reading it, so every
        // horizon is read at the stage clock.
        let mem = self.memory.horizon();
        let dram_bound = mem
            .dram
            .map(|h| self.memory.clock().max_jump_for_dram_bound(h));
        let Some(target) = [issue_due, mem.l2_release, dram_bound]
            .into_iter()
            .flatten()
            .min()
        else {
            // Nothing will ever act again; let the lock-step path burn
            // the budget exactly as it would with fast-forward off.
            return false;
        };
        let target = target.min(limit);
        if target <= now {
            return false;
        }
        self.skips += 1;
        self.skipped_cycles += target - now;
        // Both crossbars collapse the span per their quiet-span
        // contract (they buffer nothing, and empty arbitration cycles
        // are no-ops).
        let quiet = self.request_net.skip_quiet_span(now, target - now)
            && self.reply_net.skip_quiet_span(now, target - now);
        debug_assert!(quiet, "skip licensed with flits buffered in a crossbar");
        self.memory.quiet_replay_all(target);
        true
    }
}
