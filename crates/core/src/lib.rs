//! PIM-aware memory controller — the primary contribution of the
//! reproduced paper.
//!
//! A [`MemoryController`] owns one channel's MEM and PIM queues (Figure 1),
//! a cycle-level DRAM channel, and a pluggable [`policy::SchedulePolicy`]
//! that decides when to switch between MEM and PIM servicing modes. All
//! nine policies from the paper's evaluation are provided, including the
//! proposed **F3FS** (current-mode-first FR-FCFS with per-mode bypass
//! CAPs, Section VII).
//!
//! # Example
//!
//! ```
//! use pimsim_core::{MemoryController, policy::PolicyKind};
//! use pimsim_dram::AddressMapper;
//! use pimsim_types::{
//!     AppId, PhysAddr, Request, RequestId, RequestKind, SystemConfig,
//! };
//!
//! let cfg = SystemConfig::default();
//! let mapper = AddressMapper::new(&cfg.addr_map, &cfg.dram, cfg.dram_word_bytes());
//! let mut mc = MemoryController::new(&cfg, PolicyKind::F3fs { mem_cap: 256, pim_cap: 256 }.build());
//!
//! let req = Request::new(RequestId(0), AppId::GPU, RequestKind::MemRead, PhysAddr(0x1000), 0, 0);
//! mc.enqueue(req, mapper.decode(req.addr), 0);
//! let mut done = Vec::new();
//! for cycle in 0..200 {
//!     mc.step(cycle);
//!     mc.pop_completions_into(cycle, &mut done);
//! }
//! assert_eq!(done.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complexity;
pub mod controller;
mod mem_index;
pub mod policy;
pub mod queue;
mod schedule;

pub use controller::{Completion, McStats, MemoryController, StepMix};
pub use policy::{PolicyKind, SchedulePolicy};
pub use queue::{McQueues, QueuedRequest};

#[cfg(test)]
mod tests {
    use super::policy::PolicyKind;
    use super::*;
    use pimsim_dram::AddressMapper;
    use pimsim_types::{
        AppId, Mode, PhysAddr, PimCommand, PimOpKind, Request, RequestId, RequestKind, SystemConfig,
    };

    fn cfg() -> SystemConfig {
        SystemConfig::default()
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
            0,
            0,
        )
    }

    fn pim_op(
        id: u64,
        op: PimOpKind,
        row: u32,
        col: u16,
        block_start: bool,
        block_id: u64,
    ) -> Request {
        let cmd = PimCommand {
            op,
            channel: 0,
            row,
            col,
            rf_entry: 0,
            block_start,
            block_id,
        };
        Request::new(
            RequestId(id),
            AppId::PIM,
            RequestKind::Pim(cmd),
            PhysAddr(0),
            0,
            0,
        )
    }

    fn run_until_idle(mc: &mut MemoryController, limit: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        for now in 0..limit {
            mc.step(now);
            mc.pop_completions_into(now, &mut done);
            if mc.is_idle(now) {
                return done;
            }
        }
        panic!("controller did not go idle within {limit} cycles");
    }

    #[test]
    fn services_a_single_mem_read() {
        let c = cfg();
        let m = mapper(&c);
        let mut mc = MemoryController::new(&c, PolicyKind::FrFcfs.build());
        let r = mem_read(0, 0x4000);
        mc.enqueue(r, m.decode(r.addr), 0);
        let done = run_until_idle(&mut mc, 500);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].req.id, RequestId(0));
        // ACT(tRCD=12) + RD(tCL=12+burst 1) = 25 at the earliest.
        assert!(done[0].at >= 25, "completion too early: {}", done[0].at);
        assert_eq!(mc.stats().mem_served, 1);
        assert_eq!(mc.stats().mem_row_misses, 1);
        assert_eq!(mc.stats().mem_row_hits, 0);
    }

    #[test]
    fn row_hits_are_detected() {
        let c = cfg();
        let m = mapper(&c);
        let mut mc = MemoryController::new(&c, PolicyKind::FrFcfs.build());
        // Two reads to the same row (consecutive words within a channel,
        // same bank): decode both and assert same bank/row, different col.
        let a0 = 0x0u64;
        let a1 = 0x20u64; // next 32 B word, same row per Table I mapping
        let (d0, d1) = (m.decode(PhysAddr(a0)), m.decode(PhysAddr(a1)));
        assert_eq!((d0.bank, d0.row), (d1.bank, d1.row));
        mc.enqueue(mem_read(0, a0), d0, 0);
        mc.enqueue(mem_read(1, a1), d1, 0);
        let done = run_until_idle(&mut mc, 500);
        assert_eq!(done.len(), 2);
        assert_eq!(mc.stats().mem_row_hits, 1);
        assert_eq!(mc.stats().mem_row_misses, 1);
    }

    #[test]
    fn executes_a_pim_block() {
        let c = cfg();
        let mut mc = MemoryController::new(&c, PolicyKind::FrFcfs.build());
        // A block of 4 ops to row 7: load, compute, compute, store.
        mc.enqueue(
            pim_op(0, PimOpKind::RfLoad, 7, 0, true, 0),
            Default::default(),
            0,
        );
        for (i, op) in [
            PimOpKind::RfCompute,
            PimOpKind::RfCompute,
            PimOpKind::RfStore,
        ]
        .into_iter()
        .enumerate()
        {
            mc.enqueue(
                pim_op(1 + i as u64, op, 7, 1 + i as u32 as u16, false, 0),
                Default::default(),
                0,
            );
        }
        let done = run_until_idle(&mut mc, 500);
        assert_eq!(done.len(), 4);
        let s = mc.stats();
        assert_eq!(s.pim_served, 4);
        assert_eq!(s.pim_row_misses, 1, "block start opens the row");
        assert_eq!(s.pim_row_hits, 3);
    }

    #[test]
    fn mode_switch_drains_and_counts() {
        let c = cfg();
        let m = mapper(&c);
        // FCFS: strict arrival order MEM, PIM, MEM forces two switches.
        let mut mc = MemoryController::new(&c, PolicyKind::Fcfs.build());
        let r0 = mem_read(0, 0x0);
        mc.enqueue(r0, m.decode(r0.addr), 0);
        mc.enqueue(
            pim_op(1, PimOpKind::RfLoad, 9, 0, true, 0),
            Default::default(),
            0,
        );
        let r2 = mem_read(2, 0x20);
        mc.enqueue(r2, m.decode(r2.addr), 0);
        let done = run_until_idle(&mut mc, 2000);
        assert_eq!(done.len(), 3);
        let s = mc.stats();
        assert!(s.switches >= 2, "expected >=2 switches, got {}", s.switches);
        assert!(s.switches_mem_to_pim >= 1);
        // The MEM->PIM switch closed row 0's row; request 2 re-opens it.
        assert!(s.switch_conflicts >= 1, "switch conflict not attributed");
    }

    #[test]
    fn mem_first_starves_pim_until_mem_done() {
        let c = cfg();
        let m = mapper(&c);
        let mut mc = MemoryController::new(&c, PolicyKind::MemFirst.build());
        mc.enqueue(
            pim_op(0, PimOpKind::RfLoad, 3, 0, true, 0),
            Default::default(),
            0,
        );
        for i in 0..8u64 {
            let r = mem_read(1 + i, i * 0x20);
            mc.enqueue(r, m.decode(r.addr), 0);
        }
        let done = run_until_idle(&mut mc, 2000);
        // The PIM op (oldest!) must complete last under MEM-First.
        assert_eq!(done.last().expect("nonempty").req.app, AppId::PIM);
        assert_eq!(done.len(), 9);
    }

    #[test]
    fn f3fs_caps_bypasses_and_switches() {
        let c = cfg();
        let m = mapper(&c);
        let mut mc = MemoryController::new(
            &c,
            PolicyKind::F3fs {
                mem_cap: 2,
                pim_cap: 2,
            }
            .build(),
        );
        // Older PIM request, then a stream of MEM row hits that would run
        // forever under plain FR-FCFS.
        mc.enqueue(
            pim_op(0, PimOpKind::RfLoad, 3, 0, true, 0),
            Default::default(),
            0,
        );
        for i in 0..6u64 {
            let r = mem_read(1 + i, i * 0x20);
            mc.enqueue(r, m.decode(r.addr), 0);
        }
        let done = run_until_idle(&mut mc, 4000);
        assert_eq!(done.len(), 7);
        // The PIM request must complete before all MEM requests do: the
        // CAP of 2 forces a switch after two bypassing MEM issues.
        let pim_pos = done
            .iter()
            .position(|d| d.req.app == AppId::PIM)
            .expect("PIM completed");
        assert!(
            pim_pos < done.len() - 1,
            "F3FS cap must prevent PIM starvation (pos {pim_pos})"
        );
        assert!(mc.stats().switches >= 1);
    }

    #[test]
    fn blp_accounting_sees_parallel_banks() {
        let c = cfg();
        let m = mapper(&c);
        let mut mc = MemoryController::new(&c, PolicyKind::FrFcfs.build());
        // Requests to many distinct banks: bank bits are at pattern bits
        // 13..16 and 19 of the word address (Table I) -> stride of
        // 1 << (5 + 13) bytes flips bank bits with same channel.
        for i in 0..8u64 {
            let addr = i << (5 + 13);
            let r = mem_read(i, addr);
            let d = m.decode(r.addr);
            assert_eq!(d.channel, 0);
            mc.enqueue(r, d, 0);
        }
        let _ = run_until_idle(&mut mc, 4000);
        let blp = mc.stats().avg_blp().expect("some activity");
        assert!(blp > 1.05, "expected bank parallelism, got {blp}");
    }

    #[test]
    fn gather_issue_waits_for_high_watermark() {
        let c = cfg();
        let m = mapper(&c);
        let mut mc = MemoryController::new(&c, PolicyKind::GatherIssue { high: 8, low: 2 }.build());
        // Seven PIM ops (below high=8) plus one MEM request: MEM mode holds.
        for i in 0..7u64 {
            mc.enqueue(
                pim_op(i, PimOpKind::RfLoad, 3 + i as u32, 0, true, i),
                Default::default(),
                0,
            );
        }
        let r = mem_read(100, 0x0);
        mc.enqueue(r, m.decode(r.addr), 0);
        for now in 0..10 {
            mc.step(now);
        }
        assert_eq!(mc.mode(), Mode::Mem, "PIM below the high watermark");
        // The eighth PIM request crosses the watermark.
        mc.enqueue(
            pim_op(7, PimOpKind::RfLoad, 10, 0, true, 7),
            Default::default(),
            10,
        );
        let mut switched = false;
        let mut drained = Vec::new();
        for now in 10..400 {
            mc.step(now);
            mc.pop_completions_into(now, &mut drained);
            if mc.mode() == Mode::Pim {
                switched = true;
                break;
            }
        }
        assert!(switched, "G&I must gather to the watermark then switch");
    }

    #[test]
    fn bliss_blacklists_the_streaking_app_end_to_end() {
        let c = cfg();
        let m = mapper(&c);
        let mut mc = MemoryController::new(
            &c,
            PolicyKind::Bliss {
                threshold: 2,
                clear_interval: 1_000_000,
            }
            .build(),
        );
        // A long GPU streak, then one PIM op; BLISS must deprioritize the
        // streaking GPU app so the PIM op completes before the MEM tail.
        for i in 0..32u64 {
            let r = mem_read(i, i * 0x20);
            mc.enqueue(r, m.decode(r.addr), 0);
        }
        mc.enqueue(
            pim_op(99, PimOpKind::RfLoad, 5, 0, true, 0),
            Default::default(),
            0,
        );
        let mut done = Vec::new();
        for now in 0..5_000 {
            mc.step(now);
            mc.pop_completions_into(now, &mut done);
            if mc.is_idle(now) {
                break;
            }
        }
        assert_eq!(done.len(), 33);
        let pim_pos = done
            .iter()
            .position(|d| d.req.app == AppId::PIM)
            .expect("pim completed");
        assert!(
            pim_pos < done.len() - 4,
            "blacklisting must let the PIM op through before the MEM tail (pos {pim_pos})"
        );
    }

    #[test]
    fn drain_latency_is_positive_when_mem_is_in_flight() {
        let c = cfg();
        let m = mapper(&c);
        let mut mc = MemoryController::new(&c, PolicyKind::Fcfs.build());
        // Oldest is MEM, then a PIM op: FCFS serves MEM then must drain
        // before switching to PIM.
        let r = mem_read(0, 0x0);
        mc.enqueue(r, m.decode(r.addr), 0);
        mc.enqueue(
            pim_op(1, PimOpKind::RfLoad, 9, 0, true, 0),
            Default::default(),
            0,
        );
        let mut drained = Vec::new();
        for now in 0..400 {
            mc.step(now);
            mc.pop_completions_into(now, &mut drained);
        }
        let s = mc.stats();
        assert_eq!(s.switches_mem_to_pim, 1);
        assert!(
            s.mem_drain_latency_sum > 0,
            "the in-flight MEM read must have forced a drain"
        );
        assert!(s.cycles_draining > 0);
    }

    #[test]
    fn switch_conflicts_not_counted_for_unrelated_rows() {
        let c = cfg();
        let m = mapper(&c);
        let mut mc = MemoryController::new(&c, PolicyKind::Fcfs.build());
        // MEM to row A, then PIM (closes rows), then MEM to a *different*
        // row on the same bank: the reopen is NOT a switch conflict.
        let a = mem_read(0, 0x0);
        mc.enqueue(a, m.decode(a.addr), 0);
        mc.enqueue(
            pim_op(1, PimOpKind::RfLoad, 9, 0, true, 0),
            Default::default(),
            0,
        );
        // Same bank as 0x0 but a different row: flip a row bit (bit 20+5).
        let b = mem_read(2, 1 << 25);
        let da = m.decode(PhysAddr(0x0));
        let db = m.decode(PhysAddr(1 << 25));
        assert_eq!(da.bank, db.bank);
        assert_ne!(da.row, db.row);
        mc.enqueue(b, db, 0);
        let mut drained = Vec::new();
        for now in 0..800 {
            mc.step(now);
            mc.pop_completions_into(now, &mut drained);
            if mc.is_idle(now) {
                break;
            }
        }
        assert_eq!(
            mc.stats().switch_conflicts,
            0,
            "different row, no conflict charge"
        );
    }

    #[test]
    fn latency_histograms_match_service_counts() {
        let c = cfg();
        let m = mapper(&c);
        let mut mc = MemoryController::new(&c, PolicyKind::FrFcfs.build());
        for i in 0..6u64 {
            let r = mem_read(i, i * 0x20);
            mc.enqueue(r, m.decode(r.addr), 0);
        }
        for i in 0..4u64 {
            mc.enqueue(
                pim_op(10 + i, PimOpKind::RfLoad, 3, i as u16, i == 0, 0),
                Default::default(),
                0,
            );
        }
        let _ = run_until_idle(&mut mc, 2_000);
        let s = mc.stats();
        assert_eq!(s.mem_latency.count(), s.mem_served);
        assert_eq!(s.pim_latency.count(), s.pim_served);
        assert!(
            s.mem_latency.quantile(0.5).unwrap() >= 13,
            "at least tCL+burst"
        );
    }

    #[test]
    fn refresh_config_steals_service_time() {
        let mut c = cfg();
        c.timing.t_refi = 80;
        c.timing.t_rfc = 40;
        let m = mapper(&c);
        let run = |c: &SystemConfig| {
            let mut mc = MemoryController::new(c, PolicyKind::FrFcfs.build());
            for i in 0..64u64 {
                let r = mem_read(i, i * 0x20);
                mc.enqueue(r, m.decode(r.addr), 0);
            }
            let done = run_until_idle(&mut mc, 20_000);
            done.iter().map(|d| d.at).max().unwrap()
        };
        let with_refresh = run(&c);
        let baseline = run(&cfg());
        assert!(
            with_refresh > baseline,
            "refresh ({with_refresh}) must slow the stream vs baseline ({baseline})"
        );
    }

    #[test]
    fn fr_fcfs_bank_stall_holds_hits_once_conflicted() {
        // With an older PIM request waiting and a MEM stream that has both
        // hits and conflicts, FR-FCFS's conflict bits must eventually stall
        // every bank and switch — even though hits keep arriving.
        let c = cfg();
        let m = mapper(&c);
        let mut mc = MemoryController::new(&c, PolicyKind::FrFcfs.build());
        mc.enqueue(
            pim_op(0, PimOpKind::RfLoad, 7, 0, true, 0),
            Default::default(),
            0,
        );
        // Conflicting MEM pairs on one bank (same bank, different rows).
        for i in 0..8u64 {
            let addr = (i % 2) * (1 << 25) + i * 0x20;
            let r = mem_read(1 + i, addr);
            mc.enqueue(r, m.decode(r.addr), 0);
        }
        let done = run_until_idle(&mut mc, 4_000);
        assert_eq!(done.len(), 9);
        assert!(
            mc.stats().switches >= 1,
            "conflict bits must force the switch"
        );
    }

    #[test]
    fn closed_page_policy_kills_row_hits() {
        let mut c = cfg();
        c.mc.page_policy = pimsim_types::PagePolicy::Closed;
        let m = mapper(&c);
        let run = |c: &SystemConfig| {
            let mut mc = MemoryController::new(c, PolicyKind::FrFcfs.build());
            // A same-row burst that is all hits under open-page.
            for i in 0..8u64 {
                let r = mem_read(i, i * 0x20);
                mc.enqueue(r, m.decode(r.addr), 0);
            }
            let _ = run_until_idle(&mut mc, 4_000);
            (mc.stats().mem_row_hits, mc.stats().mem_row_misses)
        };
        let (open_hits, _) = run(&cfg());
        let (closed_hits, closed_misses) = run(&c);
        assert!(
            open_hits >= 6,
            "open-page burst must mostly hit ({open_hits})"
        );
        assert_eq!(closed_hits + closed_misses, 8);
        assert!(
            closed_hits <= 1,
            "closed-page must auto-precharge between accesses ({closed_hits} hits)"
        );
    }

    #[test]
    fn sixty_four_bank_controller_steps_with_a_queued_pim_op() {
        // 64 banks fill the controller's u64 bank masks exactly: the
        // all-banks mask a queued PIM op contributes must not overflow.
        let mut c = cfg();
        c.dram.banks = 64;
        let mut mc = MemoryController::new(&c, PolicyKind::FrFcfs.build());
        let top = pimsim_types::DecodedAddr {
            bank: 63,
            row: 3,
            ..Default::default()
        };
        mc.enqueue(mem_read(0, 0), top, 0);
        mc.enqueue(
            pim_op(1, PimOpKind::RfLoad, 7, 0, true, 0),
            Default::default(),
            0,
        );
        let done = run_until_idle(&mut mc, 2_000);
        assert_eq!(done.len(), 2);
        let blp = mc.stats().avg_blp().expect("some activity");
        assert!(blp > 1.0 && blp <= 64.0, "BLP {blp} out of range");
    }

    #[test]
    fn controller_starts_in_mem_mode() {
        let c = cfg();
        let mc = MemoryController::new(&c, PolicyKind::FrFcfs.build());
        assert_eq!(mc.mode(), Mode::Mem);
        assert_eq!(mc.policy_name(), "FR-FCFS");
    }
}
