//! Memory-controller scheduling policies (Section III-D and VII).
//!
//! A policy decides two things each DRAM cycle:
//!
//! 1. the **desired servicing mode** (MEM or PIM) — returning the other
//!    mode makes the controller drain in-flight requests and switch;
//! 2. the **priority class** of each MEM request — the controller serves
//!    the legal request with the lowest `(class, age)`. PIM requests are
//!    always serviced FCFS for correctness, in every policy.
//!
//! All policies except FCFS use FR-FCFS (row hits first) inside MEM mode,
//! matching the paper.

mod baselines;
mod f3fs;
pub mod registry;
mod sms;

pub use baselines::{Bliss, Fcfs, FrFcfs, FrFcfsCap, FrRrFcfs, GatherIssue, MemFirst, PimFirst};
pub use f3fs::F3fs;
pub use registry::{ParamSpec, PolicyDescriptor, PolicyParseError};
pub use sms::Sms;

use std::collections::VecDeque;

use pimsim_types::{AppId, Cycle, Mode};

use crate::queue::QueuedRequest;

/// Read-only controller state handed to policies.
#[derive(Debug)]
pub struct PolicyView<'a> {
    /// Current DRAM cycle.
    pub now: Cycle,
    /// Current servicing mode.
    pub mode: Mode,
    /// MEM queue, in arrival order — which is age order, oldest first.
    pub mem: &'a [QueuedRequest],
    /// PIM queue, in service (FCFS) order.
    pub pim: &'a VecDeque<QueuedRequest>,
    /// Open row per bank (`None` = precharged).
    pub open_rows: &'a [Option<u32>],
    /// Banks with pending MEM requests (bit b = bank b, up to 64 banks);
    /// read through [`PolicyView::mem_bank_masks`].
    pub(crate) mem_pending: u64,
    /// Banks where some pending MEM request is a row hit right now.
    pub(crate) mem_hits: u64,
}

impl<'a> PolicyView<'a> {
    /// Builds a view, deriving the bank masks by scanning `mem`, which
    /// must be in age order. The controller fills the masks from its
    /// candidate index instead, and cross-checks them against this scan
    /// in debug builds.
    pub fn new(
        now: Cycle,
        mode: Mode,
        mem: &'a [QueuedRequest],
        pim: &'a VecDeque<QueuedRequest>,
        open_rows: &'a [Option<u32>],
    ) -> Self {
        debug_assert!(
            mem.windows(2).all(|w| w[0].age < w[1].age),
            "MEM queue must be in age order"
        );
        let mut mem_pending = 0u64;
        let mut mem_hits = 0u64;
        for q in mem {
            let b = q.decoded.bank as usize;
            debug_assert!(b < 64, "bank masks support up to 64 banks");
            mem_pending |= 1 << b;
            if open_rows.get(b).copied().flatten() == Some(q.decoded.row) {
                mem_hits |= 1 << b;
            }
        }
        PolicyView {
            now,
            mode,
            mem,
            pim,
            open_rows,
            mem_pending,
            mem_hits,
        }
    }
}

impl PolicyView<'_> {
    /// Mode of the globally-oldest queued request, if any.
    pub fn oldest_mode(&self) -> Option<Mode> {
        let m = self.mem.first().map(|q| q.age);
        let p = self.pim.front().map(|q| q.age);
        match (m, p) {
            (None, None) => None,
            (Some(_), None) => Some(Mode::Mem),
            (None, Some(_)) => Some(Mode::Pim),
            (Some(ma), Some(pa)) => Some(if ma < pa { Mode::Mem } else { Mode::Pim }),
        }
    }

    /// Age of the oldest request of `mode`, if any.
    pub fn oldest_age(&self, mode: Mode) -> Option<u64> {
        match mode {
            Mode::Mem => self.mem.first().map(|q| q.age),
            Mode::Pim => self.pim.front().map(|q| q.age),
        }
    }

    /// Whether any queued MEM request would be a row-buffer hit right now.
    pub fn mem_has_row_hit(&self) -> bool {
        self.mem_hits != 0
    }

    /// Whether the PIM queue head starts a new block (the PIM analogue of
    /// a row-buffer conflict: it needs a precharge + activate).
    pub fn pim_head_is_block_start(&self) -> bool {
        self.pim
            .front()
            .and_then(|q| q.req.kind.pim())
            .is_some_and(|c| c.block_start)
    }

    /// Bitmasks over banks (bit b = bank b, up to 64 banks): banks with
    /// pending MEM requests, and banks where some pending MEM request is a
    /// row hit right now.
    pub fn mem_bank_masks(&self) -> (u64, u64) {
        (self.mem_pending, self.mem_hits)
    }

    /// Number of queued requests of `mode`.
    pub fn queue_len(&self, mode: Mode) -> usize {
        match mode {
            Mode::Mem => self.mem.len(),
            Mode::Pim => self.pim.len(),
        }
    }
}

/// A mode-switching and MEM-prioritization policy.
///
/// Implementations are notified of issued requests and completed switches
/// so they can maintain counters (caps, blacklists). The controller calls
/// [`SchedulePolicy::desired_mode`] once per DRAM cycle; implementations
/// must not mutate observable decision state inside it in a way that
/// depends on being called exactly once.
pub trait SchedulePolicy: std::fmt::Debug + Send {
    /// Short name, e.g. `"F3FS"`.
    fn name(&self) -> &'static str;

    /// The servicing mode the policy wants. Returning the non-current mode
    /// triggers a drain-and-switch.
    fn desired_mode(&mut self, view: &PolicyView<'_>) -> Mode;

    /// Priority class of a MEM request from `app` (lower wins, ties
    /// broken by age; must be below 64). `is_row_hit` is whether serving
    /// it now would hit the row buffer. The class may depend on nothing
    /// else: the controller caches each bank's best candidate and detects
    /// a class change by re-asking this once per app and hit state.
    ///
    /// The default is FR-FCFS: hits before non-hits.
    fn mem_class(&self, app: AppId, is_row_hit: bool) -> u32 {
        let _ = app;
        u32::from(!is_row_hit)
    }

    /// Banks stalled by the policy (bit b = bank b). FR-FCFS's mode-switch
    /// logic stalls a bank once it records a row-buffer conflict while the
    /// oldest request belongs to the other mode (Section III-D); the
    /// controller then issues nothing for that bank until the switch.
    fn masked_banks(&self) -> u64 {
        0
    }

    /// Called when a MEM request's column command issues.
    /// `bypassed_older_pim` is whether an older PIM request was waiting.
    fn on_mem_issued(&mut self, q: &QueuedRequest, bypassed_older_pim: bool, now: Cycle) {
        let _ = (q, bypassed_older_pim, now);
    }

    /// Called when a PIM request's column operation issues.
    /// `bypassed_older_mem` is whether an older MEM request was waiting.
    fn on_pim_issued(&mut self, q: &QueuedRequest, bypassed_older_mem: bool, now: Cycle) {
        let _ = (q, bypassed_older_mem, now);
    }

    /// Called when a mode switch completes (after the drain).
    fn on_switch_complete(&mut self, to: Mode, now: Cycle) {
        let _ = (to, now);
    }

    /// The last cycle through which this policy's decisions
    /// ([`SchedulePolicy::desired_mode`], [`SchedulePolicy::mem_class`],
    /// [`SchedulePolicy::masked_banks`]) are guaranteed unchanged, provided
    /// the [`PolicyView`] stays constant and none of the `on_*` hooks fire
    /// in between. The controller's stall memo skips the per-cycle
    /// `desired_mode` calls inside this window, so implementations whose
    /// repeated calls have side effects must bound it:
    ///
    /// * a purely view-driven policy (the default) returns `Cycle::MAX`;
    /// * a time-driven policy returns its next self-scheduled transition
    ///   (BLISS: the next blacklist-clear boundary);
    /// * a policy whose `desired_mode` is not idempotent under a constant
    ///   view (SMS advances its RNG per call) returns `now`, disabling the
    ///   skip entirely.
    fn decision_stable_until(&self, now: Cycle) -> Cycle {
        let _ = now;
        Cycle::MAX
    }

    /// How many leading PIM-queue operations the controller may retire
    /// back-to-back — one per `max(tCCDl, 1)` DRAM cycles, FCFS, without
    /// re-consulting [`SchedulePolicy::desired_mode`] — under the burst
    /// plan (DESIGN.md §4h). The controller consults this only on a cycle
    /// where `desired_mode` has already chosen PIM and the head op is
    /// legal to issue, so the count may assume the head op issues at the
    /// consulting cycle.
    ///
    /// This is a stronger promise than
    /// [`SchedulePolicy::decision_stable_until`]: the guarantee must hold
    /// **unconditionally**, for any requests that arrive in either queue
    /// while the run is in flight. The controller may therefore keep the
    /// plan alive across enqueues, which is what makes saturated bursts
    /// (an arrival every issue) retirable in closed form at all. What the
    /// implementation can rely on:
    ///
    /// * no MEM request is removed while the mode stays PIM, and every
    ///   arrival in either queue gets a larger age than anything queued —
    ///   so an age comparison that holds against the current oldest MEM
    ///   request keeps holding;
    /// * [`SchedulePolicy::on_pim_issued`] fires for each retired op, at
    ///   its analytic issue cycle, exactly as in per-cycle stepping;
    /// * the counted ops target one open row (the controller intersects
    ///   this bound with the same-row prefix and the refresh horizon).
    ///
    /// A policy whose PIM-mode decision can flip on an arrival (MEM-First)
    /// or with time alone (BLISS's clear boundary, SMS's per-call RNG)
    /// must return 0 — the default — which opts out of burst retirement
    /// entirely and falls back to per-cycle stepping.
    fn stable_pim_run(&self, view: &PolicyView<'_>) -> u64 {
        let _ = view;
        0
    }
}

/// Policy selection plus tuning parameters; buildable into a boxed policy.
///
/// # Example
///
/// ```
/// use pimsim_core::policy::PolicyKind;
///
/// let policy = PolicyKind::F3fs { mem_cap: 256, pim_cap: 256 }.build();
/// assert_eq!(policy.name(), "F3FS");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// First-come first-served across both queues.
    Fcfs,
    /// Always service MEM requests when any exist.
    MemFirst,
    /// Always service PIM requests when any exist.
    PimFirst,
    /// First-ready FCFS (Rixner et al.): row hits first; switches when the
    /// oldest request is from the other mode and no row hit remains.
    FrFcfs,
    /// FR-FCFS with a cap on row hits bypassing the oldest request.
    FrFcfsCap {
        /// Maximum bypasses before oldest-first takes over (paper: 32).
        cap: u32,
    },
    /// Blacklisting memory scheduler (Subramanian et al.).
    Bliss {
        /// Consecutive requests from one application before blacklisting
        /// (paper: 4).
        threshold: u32,
        /// Blacklist clearing interval in DRAM cycles.
        clear_interval: u64,
    },
    /// First-ready round-robin FCFS (Jog et al.): cycles modes on row
    /// conflicts.
    FrRrFcfs,
    /// Gather & Issue (Lee et al.): watermark-driven PIM draining.
    GatherIssue {
        /// PIM-queue occupancy that triggers a switch to PIM (paper: 56).
        high: usize,
        /// Occupancy at which draining stops (paper: 32).
        low: usize,
    },
    /// First Mode-FR-FCFS — this paper's proposal: current mode first, row
    /// hit second, oldest third, with per-mode bypass CAPs.
    F3fs {
        /// CAP on MEM requests bypassing an older PIM request.
        mem_cap: u32,
        /// CAP on PIM requests bypassing an older MEM request.
        pim_cap: u32,
    },
    /// SMS-lite (Ausavarungnirun et al., ISCA 2012): batch-granularity
    /// scheduling with a probabilistic SJF/round-robin batch scheduler.
    /// The paper's related work argues SMS is unsuitable for host/PIM
    /// co-scheduling (batches cannot be serviced in parallel); this
    /// extension makes the claim testable (`sms_study` bench).
    Sms {
        /// Maximum requests per batch.
        batch_cap: u32,
        /// Probability (percent) of the shortest-job-first choice.
        sjf_percent: u32,
    },
    /// Ablation variant of F3FS (Figure 14a): the CAP counts requests in
    /// the current mode, but without the "current mode first" stage.
    F3fsNoModeFirst {
        /// CAP on MEM requests bypassing an older PIM request.
        mem_cap: u32,
        /// CAP on PIM requests bypassing an older MEM request.
        pim_cap: u32,
    },
}

impl PolicyKind {
    /// Builds the policy instance.
    pub fn build(self) -> Box<dyn SchedulePolicy> {
        match self {
            PolicyKind::Fcfs => Box::new(Fcfs::new()),
            PolicyKind::MemFirst => Box::new(MemFirst::new()),
            PolicyKind::PimFirst => Box::new(PimFirst::new()),
            PolicyKind::FrFcfs => Box::new(FrFcfs::new()),
            PolicyKind::FrFcfsCap { cap } => Box::new(FrFcfsCap::new(cap)),
            PolicyKind::Bliss {
                threshold,
                clear_interval,
            } => Box::new(Bliss::new(threshold, clear_interval)),
            PolicyKind::FrRrFcfs => Box::new(FrRrFcfs::new()),
            PolicyKind::GatherIssue { high, low } => Box::new(GatherIssue::new(high, low)),
            PolicyKind::Sms {
                batch_cap,
                sjf_percent,
            } => Box::new(Sms::new(batch_cap, sjf_percent)),
            PolicyKind::F3fs { mem_cap, pim_cap } => Box::new(F3fs::new(mem_cap, pim_cap)),
            PolicyKind::F3fsNoModeFirst { mem_cap, pim_cap } => {
                Box::new(F3fs::without_mode_first(mem_cap, pim_cap))
            }
        }
    }

    /// Paper-style display label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::MemFirst => "MEM-First",
            PolicyKind::PimFirst => "PIM-First",
            PolicyKind::FrFcfs => "FR-FCFS",
            PolicyKind::FrFcfsCap { .. } => "FR-FCFS-Cap",
            PolicyKind::Bliss { .. } => "BLISS",
            PolicyKind::FrRrFcfs => "FR-RR-FCFS",
            PolicyKind::GatherIssue { .. } => "G&I",
            PolicyKind::Sms { .. } => "SMS",
            PolicyKind::F3fs { .. } => "F3FS",
            PolicyKind::F3fsNoModeFirst { .. } => "F3FS",
        }
    }

    /// The eight baseline policies with the paper's parameter settings.
    pub fn baselines() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Fcfs,
            PolicyKind::MemFirst,
            PolicyKind::PimFirst,
            PolicyKind::FrFcfs,
            PolicyKind::FrFcfsCap { cap: 32 },
            PolicyKind::Bliss {
                threshold: 4,
                clear_interval: 10_000,
            },
            PolicyKind::FrRrFcfs,
            PolicyKind::GatherIssue { high: 56, low: 32 },
        ]
    }

    /// All nine evaluated policies: the baselines plus F3FS with the
    /// symmetric competitive CAP.
    ///
    /// The paper empirically sets its competitive CAP to 256 — a multiple
    /// of the per-bank PIM register-file size (8), chosen by a sensitivity
    /// study against full-size workloads. Our workloads are scaled down
    /// (see `DESIGN.md`), and the same sensitivity study against them
    /// lands on 32 (= 4 x RF size); the `fig14`/cap-sweep bench
    /// regenerates that study.
    pub fn all() -> Vec<PolicyKind> {
        let mut v = Self::baselines();
        v.push(Self::f3fs_competitive());
        v
    }

    /// F3FS with the symmetric competitive CAP for the scaled workloads.
    pub fn f3fs_competitive() -> PolicyKind {
        PolicyKind::F3fs {
            mem_cap: 32,
            pim_cap: 32,
        }
    }

    /// Parses a registry spec string (`"f3fs:mem-cap=64"`); see
    /// [`registry::parse_spec`].
    pub fn parse_spec(spec: &str) -> Result<PolicyKind, PolicyParseError> {
        registry::parse_spec(spec)
    }

    /// The registered canonical spec name, e.g. `"fr-fcfs-cap"`; see
    /// [`registry::canonical_name`].
    pub fn canonical_name(self) -> &'static str {
        registry::canonical_name(self)
    }

    /// Returns `self` with tunable parameter `key` set to `value`; see
    /// [`registry::apply_param`].
    pub fn apply_param(self, key: &str, value: u64) -> Result<PolicyKind, PolicyParseError> {
        registry::apply_param(self, key, value)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_build_with_matching_names() {
        for kind in PolicyKind::all() {
            let p = kind.build();
            assert_eq!(p.name(), kind.label());
        }
    }

    #[test]
    fn baselines_exclude_f3fs() {
        assert_eq!(PolicyKind::baselines().len(), 8);
        assert!(PolicyKind::baselines()
            .iter()
            .all(|k| !matches!(k, PolicyKind::F3fs { .. })));
        assert_eq!(PolicyKind::all().len(), 9);
    }

    #[test]
    fn view_helpers_report_ages_and_masks() {
        use crate::queue::QueuedRequest;
        use pimsim_types::{AppId, DecodedAddr, PhysAddr, Request, RequestId, RequestKind};
        let mem: Vec<QueuedRequest> = [(3u64, 4u16, 1u32), (5, 2, 7), (9, 2, 8)]
            .into_iter()
            .map(|(age, bank, row)| QueuedRequest {
                req: Request::new(
                    RequestId(age),
                    AppId::GPU,
                    RequestKind::MemRead,
                    PhysAddr(0),
                    0,
                    0,
                ),
                decoded: DecodedAddr {
                    channel: 0,
                    bank,
                    row,
                    col: 0,
                },
                age,
                arrived: 0,
                opened_row: false,
            })
            .collect();
        let pim = std::collections::VecDeque::new();
        let mut open_rows = vec![None; 16];
        open_rows[2] = Some(7);
        let view = PolicyView::new(0, Mode::Mem, &mem, &pim, &open_rows);
        assert_eq!(view.oldest_mode(), Some(Mode::Mem));
        assert_eq!(view.oldest_age(Mode::Mem), Some(3));
        assert_eq!(view.oldest_age(Mode::Pim), None);
        assert!(view.mem_has_row_hit(), "bank 2 row 7 is open");
        assert!(!view.pim_head_is_block_start());
        let (pending, hit) = view.mem_bank_masks();
        assert_eq!(pending, (1 << 2) | (1 << 4));
        assert_eq!(hit, 1 << 2, "only the age-5 request hits");
        assert_eq!(view.queue_len(Mode::Mem), 3);
        assert_eq!(view.queue_len(Mode::Pim), 0);
    }

    #[test]
    fn oldest_mode_breaks_ties_toward_pim() {
        use crate::queue::QueuedRequest;
        use pimsim_types::{
            AppId, DecodedAddr, PhysAddr, PimCommand, PimOpKind, Request, RequestId, RequestKind,
        };
        // Equal ages cannot occur in practice (the MC assigns unique ages)
        // but the comparator must still be total: the tie goes to PIM.
        let mem = vec![QueuedRequest {
            req: Request::new(
                RequestId(0),
                AppId::GPU,
                RequestKind::MemRead,
                PhysAddr(0),
                0,
                0,
            ),
            decoded: DecodedAddr::default(),
            age: 4,
            arrived: 0,
            opened_row: false,
        }];
        let mut pim = std::collections::VecDeque::new();
        pim.push_back(QueuedRequest {
            req: Request::new(
                RequestId(1),
                AppId::PIM,
                RequestKind::Pim(PimCommand {
                    op: PimOpKind::RfLoad,
                    channel: 0,
                    row: 0,
                    col: 0,
                    rf_entry: 0,
                    block_start: true,
                    block_id: 0,
                }),
                PhysAddr(0),
                0,
                0,
            ),
            decoded: DecodedAddr::default(),
            age: 4,
            arrived: 0,
            opened_row: false,
        });
        let open_rows = vec![None; 16];
        let view = PolicyView::new(0, Mode::Mem, &mem, &pim, &open_rows);
        assert_eq!(view.oldest_mode(), Some(Mode::Pim));
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(PolicyKind::FrRrFcfs.label(), "FR-RR-FCFS");
        assert_eq!(PolicyKind::GatherIssue { high: 56, low: 32 }.label(), "G&I");
        assert_eq!(
            PolicyKind::F3fs {
                mem_cap: 1,
                pim_cap: 1
            }
            .to_string(),
            "F3FS"
        );
    }
}
