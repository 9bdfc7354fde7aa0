//! First Mode-FR-FCFS (F3FS) — the paper's proposed policy (Section VII).
//!
//! F3FS adds an arbitration stage in front of FR-FCFS that favors requests
//! in the **current mode**, implementing the priority order:
//!
//! 1. current mode first,
//! 2. row buffer hit first,
//! 3. oldest first.
//!
//! Favoring the current mode maximizes locality and minimizes switching.
//! To prevent starvation, F3FS caps the number of requests serviced in the
//! current mode that **bypass an older request of the other mode**, where
//! age is the incrementing ID assigned at controller entry. The CAPs are
//! per-mode and may be asymmetric: a collaborative workload can favor its
//! slower kernel (Section VII-B configures MEM/PIM = 256/128 for the LLM
//! under VC1), and system software could use asymmetry to encode process
//! priorities.

use pimsim_types::{Cycle, Mode};

use super::{PolicyView, SchedulePolicy};
use crate::queue::QueuedRequest;

/// The F3FS policy.
///
/// # Example
///
/// ```
/// use pimsim_core::policy::{F3fs, SchedulePolicy};
///
/// // Symmetric CAPs for competitive fairness (paper: 256/256).
/// let f3fs = F3fs::new(256, 256);
/// assert_eq!(f3fs.name(), "F3FS");
/// ```
#[derive(Debug)]
pub struct F3fs {
    mem_cap: u32,
    pim_cap: u32,
    /// Requests served in the current mode that bypassed an older
    /// other-mode request, since the last switch.
    bypassed: u32,
    /// When `false`, the "current mode first" stage is removed (ablation
    /// component 2 of Figure 14a): mode switching reverts to FR-FCFS's
    /// conflict-driven rule, keeping only the request-count CAP.
    mode_first: bool,
}

impl F3fs {
    /// Creates F3FS with per-mode bypass CAPs.
    ///
    /// # Panics
    ///
    /// Panics if either CAP is zero (a zero cap would force a switch before
    /// any request could be serviced).
    pub fn new(mem_cap: u32, pim_cap: u32) -> Self {
        assert!(mem_cap > 0 && pim_cap > 0, "F3FS CAPs must be nonzero");
        F3fs {
            mem_cap,
            pim_cap,
            bypassed: 0,
            mode_first: true,
        }
    }

    /// The Figure 14a ablation variant: the CAP counts requests in the
    /// current mode, but switching is FR-FCFS's conflict-driven rule
    /// instead of "current mode first".
    pub fn without_mode_first(mem_cap: u32, pim_cap: u32) -> Self {
        let mut p = Self::new(mem_cap, pim_cap);
        p.mode_first = false;
        p
    }

    /// The CAP applying to requests served in `mode`.
    pub fn cap(&self, mode: Mode) -> u32 {
        match mode {
            Mode::Mem => self.mem_cap,
            Mode::Pim => self.pim_cap,
        }
    }

    /// Current bypass count since the last switch.
    pub fn bypassed(&self) -> u32 {
        self.bypassed
    }
}

impl SchedulePolicy for F3fs {
    fn name(&self) -> &'static str {
        "F3FS"
    }

    fn desired_mode(&mut self, view: &PolicyView<'_>) -> Mode {
        let cur = view.mode;
        let other = cur.other();
        // Work conservation: an empty current queue yields immediately.
        if view.queue_len(cur) == 0 {
            return if view.queue_len(other) > 0 {
                other
            } else {
                cur
            };
        }
        // CAP exceeded while an older other-mode request waits: yield.
        if self.bypassed >= self.cap(cur) && view.queue_len(other) > 0 {
            let oldest_other = view.oldest_age(other);
            let oldest_cur = view.oldest_age(cur);
            if oldest_other < oldest_cur {
                return other;
            }
        }
        if self.mode_first {
            // Current mode first.
            return cur;
        }
        // Ablation variant: FR-FCFS's conflict-driven switching.
        let oldest_is_other = view.oldest_mode() == Some(other);
        let conflicted = match cur {
            Mode::Mem => !view.mem_has_row_hit(),
            Mode::Pim => view.pim_head_is_block_start(),
        };
        if oldest_is_other && conflicted {
            other
        } else {
            cur
        }
    }

    // Within MEM mode F3FS is plain FR-FCFS (the default mem_class).

    fn on_mem_issued(&mut self, _q: &QueuedRequest, bypassed_older_pim: bool, _now: Cycle) {
        if bypassed_older_pim {
            self.bypassed += 1;
        }
    }

    fn on_pim_issued(&mut self, _q: &QueuedRequest, bypassed_older_mem: bool, _now: Cycle) {
        if bypassed_older_mem {
            self.bypassed += 1;
        }
    }

    fn on_switch_complete(&mut self, _to: Mode, _now: Cycle) {
        self.bypassed = 0;
    }

    fn stable_pim_run(&self, view: &PolicyView<'_>) -> u64 {
        // Replays the CAP arithmetic the per-cycle schedule would perform
        // in PIM mode: each counted op bumps the bypass counter exactly
        // as `on_pim_issued` will when it retires, and the run ends where
        // the CAP yield (or, in the ablation variant, FR-FCFS's
        // block-boundary rule) would switch. The oldest MEM age is fixed
        // while the mode stays PIM and arrivals are strictly younger than
        // every counted op, so each per-op verdict is arrival-proof.
        let m = view.oldest_age(Mode::Mem);
        let cap = self.cap(Mode::Pim);
        let mut counter = self.bypassed;
        let mut n = 0u64;
        for q in view.pim {
            let bypasses = m.is_some_and(|a| a < q.age);
            if counter >= cap && bypasses {
                break;
            }
            let starts_block = q.req.kind.pim().is_some_and(|c| c.block_start);
            if !self.mode_first && bypasses && starts_block {
                break;
            }
            n += 1;
            if bypasses {
                counter += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_types::{
        AppId, DecodedAddr, PhysAddr, PimCommand, PimOpKind, Request, RequestId, RequestKind,
    };
    use std::collections::VecDeque;

    fn mem_q(age: u64) -> QueuedRequest {
        QueuedRequest {
            req: Request::new(
                RequestId(age),
                AppId::GPU,
                RequestKind::MemRead,
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

    fn pim_q(age: u64) -> QueuedRequest {
        let cmd = PimCommand {
            op: PimOpKind::RfLoad,
            channel: 0,
            row: 0,
            col: 0,
            rf_entry: 0,
            block_start: true,
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

    struct Fix {
        mem: Vec<QueuedRequest>,
        pim: VecDeque<QueuedRequest>,
        open_rows: Vec<Option<u32>>,
        mode: Mode,
    }

    impl Fix {
        fn new(mode: Mode) -> Self {
            Fix {
                mem: Vec::new(),
                pim: VecDeque::new(),
                open_rows: vec![None; 16],
                mode,
            }
        }

        fn view(&self) -> PolicyView<'_> {
            PolicyView::new(0, self.mode, &self.mem, &self.pim, &self.open_rows)
        }
    }

    #[test]
    fn favors_current_mode_below_cap() {
        let mut f = Fix::new(Mode::Mem);
        f.pim.push_back(pim_q(0)); // older PIM waiting
        f.mem.push(mem_q(1));
        let mut p = F3fs::new(4, 4);
        // Even with the PIM request older, MEM mode persists below the cap.
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
    }

    #[test]
    fn switches_once_cap_is_exceeded() {
        let mut f = Fix::new(Mode::Mem);
        f.pim.push_back(pim_q(0));
        f.mem.push(mem_q(1));
        let mut p = F3fs::new(2, 2);
        p.on_mem_issued(&f.mem[0], true, 0);
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem, "1 bypass < cap 2");
        p.on_mem_issued(&f.mem[0], true, 1);
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim, "cap reached");
    }

    #[test]
    fn non_bypassing_service_does_not_count() {
        let mut f = Fix::new(Mode::Mem);
        f.mem.push(mem_q(0)); // MEM is oldest: serving it bypasses nothing
        f.pim.push_back(pim_q(1));
        let mut p = F3fs::new(1, 1);
        p.on_mem_issued(&f.mem[0], false, 0);
        p.on_mem_issued(&f.mem[0], false, 1);
        assert_eq!(p.bypassed(), 0);
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
    }

    #[test]
    fn cap_only_yields_to_an_older_other_request() {
        // Cap reached, but the other queue's request is *younger*: stay.
        let mut f = Fix::new(Mode::Mem);
        f.mem.push(mem_q(0));
        f.pim.push_back(pim_q(5));
        let mut p = F3fs::new(1, 1);
        p.on_mem_issued(&f.mem[0], true, 0); // force counter to 1
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
    }

    #[test]
    fn switch_resets_counter() {
        let mut f = Fix::new(Mode::Pim);
        f.mem.push(mem_q(0));
        f.pim.push_back(pim_q(1));
        let mut p = F3fs::new(2, 1);
        p.on_pim_issued(&f.pim[0], true, 0);
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem, "pim cap 1 reached");
        p.on_switch_complete(Mode::Mem, 5);
        assert_eq!(p.bypassed(), 0);
    }

    #[test]
    fn asymmetric_caps_apply_per_mode() {
        let p = F3fs::new(256, 128);
        assert_eq!(p.cap(Mode::Mem), 256);
        assert_eq!(p.cap(Mode::Pim), 128);
    }

    #[test]
    fn empty_current_queue_yields_immediately() {
        let mut f = Fix::new(Mode::Mem);
        f.pim.push_back(pim_q(7));
        let mut p = F3fs::new(8, 8);
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim);
    }

    #[test]
    #[should_panic(expected = "CAPs must be nonzero")]
    fn zero_cap_rejected() {
        let _ = F3fs::new(0, 4);
    }
}
