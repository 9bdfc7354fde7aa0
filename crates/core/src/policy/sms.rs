//! SMS-lite: a batch-granularity scheduler in the spirit of the Staged
//! Memory Scheduler (Ausavarungnirun et al., ISCA 2012), which the paper's
//! related-work section argues is unsuitable for host/PIM co-scheduling:
//! SMS assumes batches from different sources can be serviced in parallel
//! on different banks, but MEM and PIM batches are *mutually exclusive* —
//! a PIM batch occupies every bank.
//!
//! This implementation reproduces SMS's scheduling structure at the
//! mode-arbiter level so the claim is testable:
//!
//! * requests are serviced in **batches** of up to `batch_cap` requests
//!   from one source (MEM or PIM);
//! * when a batch completes, the next source is picked by shortest-job
//!   first (fewest queued requests) with probability `sjf_percent`/100,
//!   else round-robin — SMS's two-mode batch scheduler.

use pimsim_types::{Cycle, Mode};

use super::{PolicyView, SchedulePolicy};
use crate::queue::QueuedRequest;

/// The SMS-lite policy.
///
/// # Example
///
/// ```
/// use pimsim_core::policy::{SchedulePolicy, Sms};
///
/// let sms = Sms::new(16, 90);
/// assert_eq!(sms.name(), "SMS");
/// ```
#[derive(Debug)]
pub struct Sms {
    batch_cap: u32,
    sjf_percent: u32,
    /// Requests served in the current batch.
    in_batch: u32,
    /// Round-robin pointer for the non-SJF choice.
    rr_next: Mode,
    /// Deterministic pseudo-random state for the SJF/RR coin.
    lcg: u64,
    /// Mode the current batch belongs to (sticky until the batch ends).
    batch_mode: Option<Mode>,
}

impl Sms {
    /// Creates SMS-lite with the given batch size cap and SJF probability
    /// (percent, 0..=100).
    ///
    /// # Panics
    ///
    /// Panics if `batch_cap` is zero or `sjf_percent > 100`.
    pub fn new(batch_cap: u32, sjf_percent: u32) -> Self {
        assert!(batch_cap > 0, "SMS batch cap must be nonzero");
        assert!(sjf_percent <= 100, "sjf_percent is a percentage");
        Sms {
            batch_cap,
            sjf_percent,
            in_batch: 0,
            rr_next: Mode::Pim,
            lcg: 0x853c_49e6_748f_ea9b,
            batch_mode: None,
        }
    }

    fn coin(&mut self) -> u32 {
        // Deterministic LCG; SMS's probabilistic choice without breaking
        // run-to-run reproducibility.
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.lcg >> 33) % 100) as u32
    }

    fn pick_next_batch(&mut self, view: &PolicyView<'_>) -> Mode {
        let mem_len = view.queue_len(Mode::Mem);
        let pim_len = view.queue_len(Mode::Pim);
        if mem_len == 0 {
            return Mode::Pim;
        }
        if pim_len == 0 {
            return Mode::Mem;
        }
        if self.coin() < self.sjf_percent {
            // Shortest job first: the source with fewer queued requests.
            if mem_len <= pim_len {
                Mode::Mem
            } else {
                Mode::Pim
            }
        } else {
            let m = self.rr_next;
            self.rr_next = m.other();
            m
        }
    }
}

impl SchedulePolicy for Sms {
    fn name(&self) -> &'static str {
        "SMS"
    }

    fn desired_mode(&mut self, view: &PolicyView<'_>) -> Mode {
        // Continue the current batch while it has budget and supply.
        if let Some(mode) = self.batch_mode {
            if self.in_batch < self.batch_cap && view.queue_len(mode) > 0 {
                return mode;
            }
        }
        // Batch boundary: form the next one.
        let next = self.pick_next_batch(view);
        self.batch_mode = Some(next);
        self.in_batch = 0;
        next
    }

    fn decision_stable_until(&self, now: Cycle) -> Cycle {
        // The batch scheduler's RNG advances on every call at a batch
        // boundary: `desired_mode` is not idempotent, so the controller
        // must consult it every cycle.
        now
    }

    fn stable_pim_run(&self, view: &PolicyView<'_>) -> u64 {
        // SMS opts in with the only guarantee it can make: none. Burst
        // retirement would skip the per-cycle `desired_mode` calls whose
        // RNG draws define the batch schedule, so every run is length 0
        // and PIM bursts step cycle by cycle (mirroring
        // `decision_stable_until` above).
        let _ = view;
        0
    }

    fn on_mem_issued(&mut self, _q: &QueuedRequest, _bypassed: bool, _now: Cycle) {
        if self.batch_mode == Some(Mode::Mem) {
            self.in_batch += 1;
        }
    }

    fn on_pim_issued(&mut self, _q: &QueuedRequest, _bypassed: bool, _now: Cycle) {
        if self.batch_mode == Some(Mode::Pim) {
            self.in_batch += 1;
        }
    }

    fn on_switch_complete(&mut self, to: Mode, _now: Cycle) {
        self.batch_mode = Some(to);
        self.in_batch = 0;
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
        QueuedRequest {
            req: Request::new(
                RequestId(age),
                AppId::PIM,
                RequestKind::Pim(PimCommand {
                    op: PimOpKind::RfLoad,
                    channel: 0,
                    row: 0,
                    col: 0,
                    rf_entry: 0,
                    block_start: true,
                    block_id: age,
                }),
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
        fn new() -> Self {
            Fix {
                mem: Vec::new(),
                pim: VecDeque::new(),
                open_rows: vec![None; 16],
                mode: Mode::Mem,
            }
        }

        fn view(&self) -> PolicyView<'_> {
            PolicyView::new(0, self.mode, &self.mem, &self.pim, &self.open_rows)
        }
    }

    #[test]
    fn batch_sticks_until_cap() {
        let mut f = Fix::new();
        for i in 0..8 {
            f.mem.push(mem_q(i));
            f.pim.push_back(pim_q(100 + i));
        }
        let mut p = Sms::new(3, 100); // always SJF; queues equal -> MEM
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem);
        p.on_switch_complete(Mode::Mem, 0);
        for _ in 0..2 {
            p.on_mem_issued(&f.mem[0], false, 0);
            assert_eq!(p.desired_mode(&f.view()), Mode::Mem, "batch not done");
        }
        p.on_mem_issued(&f.mem[0], false, 0);
        // Cap reached: next batch decision happens; with SJF and equal
        // queue lengths MEM wins again, but the batch counter reset.
        let next = p.desired_mode(&f.view());
        assert_eq!(next, Mode::Mem);
    }

    #[test]
    fn sjf_prefers_the_shorter_queue() {
        let mut f = Fix::new();
        f.mem.push(mem_q(0));
        for i in 0..6 {
            f.pim.push_back(pim_q(10 + i));
        }
        let mut p = Sms::new(1, 100);
        assert_eq!(p.desired_mode(&f.view()), Mode::Mem, "MEM is the short job");
    }

    #[test]
    fn round_robin_alternates_with_zero_sjf() {
        let mut f = Fix::new();
        for i in 0..4 {
            f.mem.push(mem_q(i));
            f.pim.push_back(pim_q(100 + i));
        }
        let mut p = Sms::new(1, 0); // pure round-robin
        let mut modes = Vec::new();
        for _ in 0..4 {
            let m = p.desired_mode(&f.view());
            modes.push(m);
            p.on_switch_complete(m, 0);
            match m {
                Mode::Mem => p.on_mem_issued(&f.mem[0], false, 0),
                Mode::Pim => p.on_pim_issued(&f.pim[0], false, 0),
            }
        }
        for w in modes.windows(2) {
            assert_ne!(w[0], w[1], "round-robin must alternate: {modes:?}");
        }
    }

    #[test]
    fn empty_queue_yields_to_the_other_source() {
        let mut f = Fix::new();
        f.pim.push_back(pim_q(0));
        let mut p = Sms::new(4, 50);
        assert_eq!(p.desired_mode(&f.view()), Mode::Pim);
    }

    #[test]
    fn deterministic_coin() {
        let mut a = Sms::new(4, 50);
        let mut b = Sms::new(4, 50);
        for _ in 0..100 {
            assert_eq!(a.coin(), b.coin());
        }
    }

    #[test]
    #[should_panic(expected = "batch cap must be nonzero")]
    fn zero_batch_cap_rejected() {
        let _ = Sms::new(0, 50);
    }
}
