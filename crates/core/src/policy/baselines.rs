//! The eight baseline scheduling policies of Section III-D.
//!
//! None of these (except G&I) were designed for PIM; each is given the
//! mode-switching behavior the paper describes for it.

use pimsim_types::{AppId, Cycle, Mode};

use super::{PolicyView, SchedulePolicy};
use crate::queue::QueuedRequest;

/// Work-conserving fallback: stay in `mode` unless its queue is empty and
/// the other queue is not.
fn work_conserving(view: &PolicyView<'_>, mode: Mode) -> Mode {
    if view.queue_len(mode) == 0 && view.queue_len(mode.other()) > 0 {
        mode.other()
    } else {
        mode
    }
}

/// Whether a queued PIM op starts a new block (the per-op analogue of
/// [`PolicyView::pim_head_is_block_start`], for walking the queue in the
/// `stable_pim_run` bounds).
fn block_start(q: &QueuedRequest) -> bool {
    q.req.kind.pim().is_some_and(|c| c.block_start)
}

/// First-come first-served across both queues: the globally-oldest request
/// defines the mode, and MEM requests are served strictly by age (no
/// first-ready reordering).
#[derive(Debug, Default)]
pub struct Fcfs;

impl Fcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        Fcfs
    }
}

impl SchedulePolicy for Fcfs {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn desired_mode(&mut self, view: &PolicyView<'_>) -> Mode {
        view.oldest_mode().unwrap_or(view.mode)
    }

    fn mem_class(&self, _app: AppId, _is_row_hit: bool) -> u32 {
        0 // pure age order
    }

    fn stable_pim_run(&self, view: &PolicyView<'_>) -> u64 {
        // FCFS keeps choosing PIM while the PIM head is no younger than
        // every MEM request (ties go to PIM). The oldest MEM age cannot
        // drop while the mode stays PIM (no removals, arrivals are
        // strictly younger than everything queued), so the bound is
        // arrival-proof.
        let m = view.oldest_age(Mode::Mem);
        view.pim
            .iter()
            .take_while(|q| m.is_none_or(|a| q.age <= a))
            .count() as u64
    }
}

/// Always issues MEM requests if there are any (Cho et al., ISCA 2020).
#[derive(Debug, Default)]
pub struct MemFirst;

impl MemFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        MemFirst
    }
}

impl SchedulePolicy for MemFirst {
    fn name(&self) -> &'static str {
        "MEM-First"
    }

    fn desired_mode(&mut self, view: &PolicyView<'_>) -> Mode {
        if view.queue_len(Mode::Mem) > 0 {
            Mode::Mem
        } else if view.queue_len(Mode::Pim) > 0 {
            Mode::Pim
        } else {
            view.mode
        }
    }

    // `stable_pim_run` stays at the default 0: a single MEM arrival flips
    // the desired mode, so no PIM run survives arbitrary arrivals.
}

/// Always issues PIM requests if there are any.
#[derive(Debug, Default)]
pub struct PimFirst;

impl PimFirst {
    /// Creates the policy.
    pub fn new() -> Self {
        PimFirst
    }
}

impl SchedulePolicy for PimFirst {
    fn name(&self) -> &'static str {
        "PIM-First"
    }

    fn desired_mode(&mut self, view: &PolicyView<'_>) -> Mode {
        if view.queue_len(Mode::Pim) > 0 {
            Mode::Pim
        } else if view.queue_len(Mode::Mem) > 0 {
            Mode::Mem
        } else {
            view.mode
        }
    }

    fn stable_pim_run(&self, view: &PolicyView<'_>) -> u64 {
        // PIM-First stays in PIM mode while any PIM op is queued, so the
        // entire queued prefix is retirable; arrivals only extend it.
        view.pim.len() as u64
    }
}

/// The per-bank conflict-bit machinery FR-FCFS uses to switch out of MEM
/// mode (Section III-D): a bank sets its conflict bit — and *stalls* —
/// when its next request is a row-buffer conflict while the globally
/// oldest request is a PIM request; the switch happens once every bank
/// with pending MEM requests has set its bit.
#[derive(Debug, Default)]
struct ConflictBits {
    mask: u64,
}

impl ConflictBits {
    /// Updates the bits from the current view; returns `true` when all
    /// pending banks are conflicted (switch condition met).
    fn update(&mut self, view: &PolicyView<'_>) -> bool {
        if view.oldest_mode() != Some(Mode::Pim) {
            // No older PIM request waiting: conflicts don't accumulate.
            self.mask = 0;
            return false;
        }
        let (pending, hit) = view.mem_bank_masks();
        self.mask |= pending & !hit;
        pending != 0 && pending & !self.mask == 0
    }

    fn clear(&mut self) {
        self.mask = 0;
    }
}

/// First-ready FCFS (Rixner et al., ISCA 2000) with the paper's PIM-mode
/// switching: in MEM mode, each bank sets a sticky conflict bit (and
/// stalls) when it hits a row conflict while the oldest request is PIM;
/// the mode switches once every pending bank is conflicted. In PIM mode
/// it yields at a block boundary when the oldest request is MEM.
#[derive(Debug, Default)]
pub struct FrFcfs {
    conflicts: ConflictBits,
}

impl FrFcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        FrFcfs::default()
    }
}

impl SchedulePolicy for FrFcfs {
    fn name(&self) -> &'static str {
        "FR-FCFS"
    }

    fn desired_mode(&mut self, view: &PolicyView<'_>) -> Mode {
        match view.mode {
            Mode::Mem => {
                if self.conflicts.update(view) {
                    Mode::Pim
                } else {
                    work_conserving(view, Mode::Mem)
                }
            }
            Mode::Pim => {
                let oldest_is_mem = view.oldest_mode() == Some(Mode::Mem);
                if oldest_is_mem && view.pim_head_is_block_start() {
                    Mode::Mem
                } else {
                    work_conserving(view, Mode::Pim)
                }
            }
        }
    }

    fn masked_banks(&self) -> u64 {
        self.conflicts.mask
    }

    fn on_switch_complete(&mut self, _to: Mode, _now: Cycle) {
        self.conflicts.clear();
    }

    fn stable_pim_run(&self, view: &PolicyView<'_>) -> u64 {
        // In PIM mode FR-FCFS yields only when the head starts a block
        // *and* the globally-oldest request is MEM. The oldest MEM age is
        // fixed while the mode stays PIM, and arrivals are younger than
        // every counted op, so the yield condition per op is stable.
        let m = view.oldest_age(Mode::Mem);
        view.pim
            .iter()
            .take_while(|q| !(block_start(q) && m.is_some_and(|a| a < q.age)))
            .count() as u64
    }
}

/// FR-FCFS-Cap (Mutlu & Moscibroda, MICRO 2007): FR-FCFS, but at most
/// `cap` requests may bypass the globally-oldest request before age order
/// takes over (restoring starvation freedom).
#[derive(Debug)]
pub struct FrFcfsCap {
    cap: u32,
    bypassed: u32,
    conflicts: ConflictBits,
}

impl FrFcfsCap {
    /// Creates the policy with the given bypass cap (paper: 32).
    pub fn new(cap: u32) -> Self {
        FrFcfsCap {
            cap,
            bypassed: 0,
            conflicts: ConflictBits::default(),
        }
    }

    fn cap_reached(&self) -> bool {
        self.bypassed >= self.cap
    }
}

impl SchedulePolicy for FrFcfsCap {
    fn name(&self) -> &'static str {
        "FR-FCFS-Cap"
    }

    fn desired_mode(&mut self, view: &PolicyView<'_>) -> Mode {
        let oldest = view.oldest_mode();
        if self.cap_reached() {
            // Serve the oldest request next, switching if needed.
            return oldest.unwrap_or(view.mode);
        }
        match view.mode {
            Mode::Mem => {
                if self.conflicts.update(view) {
                    Mode::Pim
                } else {
                    work_conserving(view, Mode::Mem)
                }
            }
            Mode::Pim => {
                let oldest_is_mem = oldest == Some(Mode::Mem);
                if oldest_is_mem && view.pim_head_is_block_start() {
                    Mode::Mem
                } else {
                    work_conserving(view, Mode::Pim)
                }
            }
        }
    }

    fn masked_banks(&self) -> u64 {
        // The cap overrides stalls: once reached, the oldest request must
        // be able to issue.
        if self.cap_reached() {
            0
        } else {
            self.conflicts.mask
        }
    }

    fn mem_class(&self, _app: AppId, is_row_hit: bool) -> u32 {
        if self.cap_reached() {
            0 // age order until the oldest is served
        } else {
            u32::from(!is_row_hit)
        }
    }

    fn on_mem_issued(&mut self, q: &QueuedRequest, bypassed_older_pim: bool, _now: Cycle) {
        // Serving anything younger than the globally-oldest counts toward
        // the cap; serving the oldest resets it.
        let _ = q;
        if bypassed_older_pim {
            self.bypassed += 1;
        } else {
            self.bypassed = 0;
        }
    }

    fn on_pim_issued(&mut self, _q: &QueuedRequest, bypassed_older_mem: bool, _now: Cycle) {
        if bypassed_older_mem {
            self.bypassed += 1;
        } else {
            self.bypassed = 0;
        }
    }

    fn on_switch_complete(&mut self, _to: Mode, _now: Cycle) {
        self.bypassed = 0;
        self.conflicts.clear();
    }

    fn stable_pim_run(&self, view: &PolicyView<'_>) -> u64 {
        // Replays the cap arithmetic the per-cycle oracle would perform:
        // each counted op updates the bypass counter exactly as
        // `on_pim_issued` will when it retires. Once the cap is reached
        // the policy serves the globally-oldest request, so the run ends
        // at the first capped bypass; below the cap it ends at FR-FCFS's
        // block-boundary yield.
        let m = view.oldest_age(Mode::Mem);
        let mut counter = self.bypassed;
        let mut n = 0u64;
        for q in view.pim {
            let bypasses = m.is_some_and(|a| a < q.age);
            let keeps_pim = if counter >= self.cap {
                // Oldest-first: PIM retains the tie.
                !bypasses
            } else {
                !(bypasses && block_start(q))
            };
            if !keeps_pim {
                break;
            }
            n += 1;
            counter = if bypasses { counter + 1 } else { 0 };
        }
        n
    }
}

/// BLISS (Subramanian et al., TPDS 2016): applications that issue more
/// than `threshold` requests consecutively are blacklisted; priority is
/// then (non-blacklisted, row hit, oldest). The blacklist clears every
/// `clear_interval` DRAM cycles.
#[derive(Debug)]
pub struct Bliss {
    threshold: u32,
    clear_interval: u64,
    blacklisted: Vec<bool>,
    streak_app: Option<AppId>,
    streak: u32,
    last_clear: Cycle,
}

impl Bliss {
    /// Creates the policy (paper: threshold 4).
    pub fn new(threshold: u32, clear_interval: u64) -> Self {
        Bliss {
            threshold,
            clear_interval,
            blacklisted: vec![false; 256],
            streak_app: None,
            streak: 0,
            last_clear: 0,
        }
    }

    fn note_served(&mut self, app: AppId) {
        if self.streak_app == Some(app) {
            self.streak += 1;
        } else {
            self.streak_app = Some(app);
            self.streak = 1;
        }
        if self.streak > self.threshold {
            self.blacklisted[app.index()] = true;
        }
    }

    fn maybe_clear(&mut self, now: Cycle) {
        if now.saturating_sub(self.last_clear) >= self.clear_interval {
            self.blacklisted.iter_mut().for_each(|b| *b = false);
            self.last_clear = now;
        }
    }

    /// Whether `app` is currently blacklisted.
    pub fn is_blacklisted(&self, app: AppId) -> bool {
        self.blacklisted[app.index()]
    }
}

impl SchedulePolicy for Bliss {
    fn name(&self) -> &'static str {
        "BLISS"
    }

    fn desired_mode(&mut self, view: &PolicyView<'_>) -> Mode {
        self.maybe_clear(view.now);
        // Best MEM candidate: (blacklisted, !hit, age); best PIM candidate:
        // (blacklisted, !continuation, age). Lower tuple wins.
        let best_mem = view
            .mem
            .iter()
            .map(|q| {
                let hit = view
                    .open_rows
                    .get(q.decoded.bank as usize)
                    .copied()
                    .flatten()
                    == Some(q.decoded.row);
                (
                    u8::from(self.is_blacklisted(q.req.app)),
                    u8::from(!hit),
                    q.age,
                )
            })
            .min();
        let best_pim = view.pim.front().map(|q| {
            (
                u8::from(self.is_blacklisted(q.req.app)),
                u8::from(view.pim_head_is_block_start()),
                q.age,
            )
        });
        match (best_mem, best_pim) {
            (None, None) => view.mode,
            (Some(_), None) => Mode::Mem,
            (None, Some(_)) => Mode::Pim,
            (Some(m), Some(p)) => {
                if m <= p {
                    Mode::Mem
                } else {
                    Mode::Pim
                }
            }
        }
    }

    fn mem_class(&self, app: AppId, is_row_hit: bool) -> u32 {
        u32::from(self.is_blacklisted(app)) * 2 + u32::from(!is_row_hit)
    }

    fn on_mem_issued(&mut self, q: &QueuedRequest, _bypassed_older_pim: bool, _now: Cycle) {
        self.note_served(q.req.app);
    }

    fn on_pim_issued(&mut self, q: &QueuedRequest, _bypassed_older_mem: bool, _now: Cycle) {
        self.note_served(q.req.app);
    }

    fn decision_stable_until(&self, now: Cycle) -> Cycle {
        // The blacklist clears at the first stepped cycle past the
        // interval; decisions may flip there, so the stall memo must hand
        // control back for a full step at that boundary.
        let _ = now;
        self.last_clear.saturating_add(self.clear_interval)
    }

    // `stable_pim_run` stays at the default 0: the blacklist both clears
    // with time and grows with every served request, so per-op decisions
    // inside a run are not arrival-proof.
}

/// FR-RR-FCFS (Jog et al., GPGPU-7): row hit first, next mode in
/// round-robin order on a row-buffer conflict, oldest first within the
/// current mode. Unlike FR-FCFS, the switch does not wait for the other
/// mode's request to become the oldest.
///
/// "Oldest first within the current mode" (priority 3) means every mode
/// visit services at least its oldest request — opening its row if needed
/// — before a conflict can rotate the mode again. Without that guarantee
/// the policy would bounce straight back after every switch (a fresh mode
/// starts with no row hits because the drain left the other mode's rows
/// open).
#[derive(Debug, Default)]
pub struct FrRrFcfs {
    served_since_switch: bool,
}

impl FrRrFcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        FrRrFcfs::default()
    }
}

impl SchedulePolicy for FrRrFcfs {
    fn name(&self) -> &'static str {
        "FR-RR-FCFS"
    }

    fn desired_mode(&mut self, view: &PolicyView<'_>) -> Mode {
        match view.mode {
            Mode::Mem => {
                if view.queue_len(Mode::Mem) > 0
                    && (view.mem_has_row_hit() || !self.served_since_switch)
                {
                    Mode::Mem
                } else if view.queue_len(Mode::Pim) > 0 {
                    Mode::Pim
                } else {
                    work_conserving(view, Mode::Mem)
                }
            }
            Mode::Pim => {
                if view.queue_len(Mode::Pim) > 0
                    && (!view.pim_head_is_block_start() || !self.served_since_switch)
                {
                    Mode::Pim
                } else if view.queue_len(Mode::Mem) > 0 {
                    Mode::Mem
                } else {
                    work_conserving(view, Mode::Pim)
                }
            }
        }
    }

    fn on_mem_issued(&mut self, _q: &QueuedRequest, _bypassed: bool, _now: Cycle) {
        self.served_since_switch = true;
    }

    fn on_pim_issued(&mut self, _q: &QueuedRequest, _bypassed: bool, _now: Cycle) {
        self.served_since_switch = true;
    }

    fn on_switch_complete(&mut self, _to: Mode, _now: Cycle) {
        self.served_since_switch = false;
    }

    fn stable_pim_run(&self, view: &PolicyView<'_>) -> u64 {
        // The head op is already sanctioned by this cycle's
        // `desired_mode`; its issue sets `served_since_switch`, after
        // which the visit lasts exactly until the next block boundary —
        // regardless of what arrives in the MEM queue (mid-block ops keep
        // PIM unconditionally).
        if view.pim.is_empty() {
            return 0;
        }
        1 + view
            .pim
            .iter()
            .skip(1)
            .take_while(|q| !block_start(q))
            .count() as u64
    }
}

/// Gather & Issue (Lee et al., ICCE-Asia 2021): switch to PIM when the PIM
/// queue reaches the `high` watermark, drain until it falls to `low`.
#[derive(Debug)]
pub struct GatherIssue {
    high: usize,
    low: usize,
}

impl GatherIssue {
    /// Creates the policy (paper: high 56, low 32).
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn new(high: usize, low: usize) -> Self {
        assert!(low < high, "G&I watermarks require low < high");
        GatherIssue { high, low }
    }
}

impl SchedulePolicy for GatherIssue {
    fn name(&self) -> &'static str {
        "G&I"
    }

    fn desired_mode(&mut self, view: &PolicyView<'_>) -> Mode {
        let pim_len = view.queue_len(Mode::Pim);
        match view.mode {
            Mode::Mem => {
                if pim_len >= self.high {
                    Mode::Pim
                } else {
                    work_conserving(view, Mode::Mem)
                }
            }
            Mode::Pim => {
                if pim_len <= self.low && view.queue_len(Mode::Mem) > 0 {
                    Mode::Mem
                } else {
                    work_conserving(view, Mode::Pim)
                }
            }
        }
    }

    fn stable_pim_run(&self, view: &PolicyView<'_>) -> u64 {
        // The drain continues while the PIM queue sits above the low
        // watermark. A MEM arrival can end the visit the moment occupancy
        // reaches `low`, so the arrival-proof run is the drain down to the
        // watermark (PIM arrivals only lengthen it; they are not counted).
        (view.pim.len() as u64).saturating_sub(self.low as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_types::{
        DecodedAddr, PhysAddr, PimCommand, PimOpKind, Request, RequestId, RequestKind,
    };
    use std::collections::VecDeque;

    fn mem_q(age: u64, bank: u16, row: u32) -> QueuedRequest {
        QueuedRequest {
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
        }
    }

    fn pim_q(age: u64, block_start: bool) -> QueuedRequest {
        let cmd = PimCommand {
            op: PimOpKind::RfLoad,
            channel: 0,
            row: 5,
            col: 0,
            rf_entry: 0,
            block_start,
            block_id: 0,
        };
        QueuedRequest {
            req: Request::new(
                RequestId(age),
                AppId::PIM,
                RequestKind::Pim(cmd),
                PhysAddr(0),
                0,
                0,
            ),
            decoded: DecodedAddr::default(),
            age,
            arrived: 0,
            opened_row: false,
        }
    }

    struct Fixture {
        mem: Vec<QueuedRequest>,
        pim: VecDeque<QueuedRequest>,
        open_rows: Vec<Option<u32>>,
        mode: Mode,
        now: Cycle,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                mem: Vec::new(),
                pim: VecDeque::new(),
                open_rows: vec![None; 16],
                mode: Mode::Mem,
                now: 0,
            }
        }

        fn view(&self) -> PolicyView<'_> {
            PolicyView::new(self.now, self.mode, &self.mem, &self.pim, &self.open_rows)
        }
    }

    #[test]
    fn fcfs_follows_global_age() {
        let mut f = Fixture::new();
        f.pim.push_back(pim_q(0, true));
        f.mem.push(mem_q(1, 0, 0));
        let mut p = Fcfs::new();
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim);
        f.pim.clear();
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
    }

    #[test]
    fn mem_first_starves_pim_while_mem_pending() {
        let mut f = Fixture::new();
        f.pim.push_back(pim_q(0, true));
        f.mem.push(mem_q(1, 0, 0));
        f.mode = Mode::Pim;
        let mut p = MemFirst::new();
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
        f.mem.clear();
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim);
    }

    #[test]
    fn pim_first_mirrors_mem_first() {
        let mut f = Fixture::new();
        f.pim.push_back(pim_q(5, true));
        f.mem.push(mem_q(0, 0, 0));
        let mut p = PimFirst::new();
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim);
    }

    #[test]
    fn fr_fcfs_stays_on_row_hits_even_when_pim_is_older() {
        let mut f = Fixture::new();
        f.pim.push_back(pim_q(0, true));
        f.mem.push(mem_q(1, 2, 7));
        f.open_rows[2] = Some(7); // row hit available
        let mut p = FrFcfs::new();
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
        // Hit disappears -> conflict with an older PIM request -> switch.
        f.open_rows[2] = Some(9);
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim);
    }

    #[test]
    fn fr_fcfs_does_not_switch_when_mem_is_oldest() {
        let mut f = Fixture::new();
        f.mem.push(mem_q(0, 2, 7)); // oldest is MEM
        f.pim.push_back(pim_q(1, true));
        f.open_rows[2] = Some(9); // conflict
        let mut p = FrFcfs::new();
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
    }

    #[test]
    fn fr_fcfs_pim_mode_yields_only_at_block_boundary() {
        let mut f = Fixture::new();
        f.mode = Mode::Pim;
        f.mem.push(mem_q(0, 0, 0)); // older MEM waiting
        f.pim.push_back(pim_q(1, false)); // mid-block
        let mut p = FrFcfs::new();
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim);
        f.pim[0] = pim_q(1, true); // block boundary
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
    }

    #[test]
    fn fr_fcfs_cap_forces_oldest_after_cap() {
        let mut f = Fixture::new();
        f.pim.push_back(pim_q(0, false)); // oldest overall is PIM
        f.mem.push(mem_q(1, 2, 7));
        f.open_rows[2] = Some(7); // MEM row hits keep flowing
        let mut p = FrFcfsCap::new(2);
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
        // Two bypassing MEM issues reach the cap.
        p.on_mem_issued(&f.mem[0], true, 0);
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
        p.on_mem_issued(&f.mem[0], true, 1);
        assert_eq!(
            p.desired_mode(&f.view()),
            Mode::Pim,
            "cap reached: serve oldest"
        );
        // And MEM selection degrades to pure age order.
        assert_eq!(p.mem_class(AppId::GPU, true), 0);
        // Serving the oldest resets the counter.
        p.on_pim_issued(&f.pim[0], false, 2);
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
    }

    #[test]
    fn bliss_blacklists_streaking_app() {
        let mut f = Fixture::new();
        f.mem.push(mem_q(10, 0, 1));
        f.pim.push_back(pim_q(11, false));
        let mut p = Bliss::new(2, 1_000_000);
        for _ in 0..3 {
            p.on_mem_issued(&f.mem[0], false, 0);
        }
        assert!(p.is_blacklisted(AppId::GPU));
        assert!(!p.is_blacklisted(AppId::PIM));
        // Blacklisted MEM loses to PIM despite being older.
        f.mem[0].age = 0;
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim);
        assert!(p.mem_class(AppId::GPU, true) >= 2);
    }

    #[test]
    fn bliss_clears_blacklist_after_interval() {
        let mut f = Fixture::new();
        f.mem.push(mem_q(0, 0, 1));
        let mut p = Bliss::new(1, 100);
        p.on_mem_issued(&f.mem[0], false, 0);
        p.on_mem_issued(&f.mem[0], false, 1);
        assert!(p.is_blacklisted(AppId::GPU));
        f.now = 150;
        let _ = p.desired_mode(&f.view());
        assert!(!p.is_blacklisted(AppId::GPU));
    }

    #[test]
    fn fr_rr_switches_on_conflict_regardless_of_age() {
        let mut f = Fixture::new();
        // MEM is oldest but has no row hit; PIM pending -> switch anyway,
        // once this mode visit has serviced at least one request.
        f.mem.push(mem_q(0, 2, 7));
        f.pim.push_back(pim_q(1, true));
        f.open_rows[2] = Some(9);
        let mut p = FrRrFcfs::new();
        assert_eq!(
            p.desired_mode(&f.view()),
            Mode::Mem,
            "oldest-first guarantees one service per visit"
        );
        p.on_mem_issued(&f.mem[0], false, 0);
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim);
        // With a hit, stay (even after having served).
        f.open_rows[2] = Some(7);
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
    }

    #[test]
    fn fr_rr_pim_visit_finishes_its_block() {
        let mut f = Fixture::new();
        f.mode = Mode::Pim;
        f.mem.push(mem_q(0, 2, 7));
        f.pim.push_back(pim_q(1, true)); // block boundary at the head
        let mut p = FrRrFcfs::new();
        // Fresh visit: serve the boundary op rather than bounce back.
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim);
        p.on_pim_issued(&f.pim[0], false, 0);
        // Next boundary rotates to MEM.
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
    }

    #[test]
    fn gather_issue_watermarks() {
        let mut f = Fixture::new();
        f.mem.push(mem_q(0, 0, 0));
        let mut p = GatherIssue::new(4, 2);
        for i in 0..3 {
            f.pim.push_back(pim_q(1 + i, false));
        }
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem, "below high watermark");
        f.pim.push_back(pim_q(9, false));
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim, "high watermark hit");
        f.mode = Mode::Pim;
        f.pim.pop_front();
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim, "still above low");
        f.pim.pop_front();
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem, "drained to low");
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn gather_issue_rejects_bad_watermarks() {
        let _ = GatherIssue::new(2, 4);
    }

    #[test]
    fn empty_queues_stay_in_current_mode() {
        let f = Fixture::new();
        for kind in super::super::PolicyKind::all() {
            let mut p = kind.build();
            assert_eq!(
                p.desired_mode(&f.view()),
                Mode::Mem,
                "{} must not switch with empty queues",
                p.name()
            );
        }
    }
}
