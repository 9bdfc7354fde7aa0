//! Layer micro-benchmarks, timed from outside through each layer's public
//! functions. The DRAM, crossbar and controller loops are the ones in
//! `crates/bench/benches/{dram,noc,controller}.rs`; the L2 loop is new.
//! Each reports the median of `reps` timed repetitions.

use std::hint::black_box;
use std::time::Instant;

use pimsim_cache::{AccessOutcome, CacheSlice};
use pimsim_core::{policy::PolicyKind, MemoryController};
use pimsim_dram::{AddressMapper, Channel, DramCommand};
use pimsim_noc::Crossbar;
use pimsim_types::{
    AppId, CacheConfig, DramConfig, DramTiming, PhysAddr, PimCommand, PimOpKind, Request,
    RequestId, RequestKind, SystemConfig, VcMode,
};

use crate::median;

/// Every micro-benchmark metric: `(name, ns per unit of work, unit)`.
/// `scale` shrinks the work per repetition (the smoke test uses a tiny
/// value).
pub fn all(reps: usize, scale: f64) -> Vec<(String, f64, &'static str)> {
    let n = |base: u64| ((base as f64 * scale) as u64).max(1);
    let dram = DramConfig::default();
    let timing = DramTiming::default();
    let mut out = Vec::new();
    let mut push = |name: &str, ns: f64| out.push((name.to_owned(), ns, "ns"));
    push(
        "dram.ns_per_cmd.row_hit",
        time_per_unit(reps, n(2_000), || {
            run_stream(&mut Channel::new(&dram, &timing), 64, true)
        }),
    );
    push(
        "dram.ns_per_cmd.conflict",
        time_per_unit(reps, n(2_000), || {
            run_stream(&mut Channel::new(&dram, &timing), 64, false)
        }),
    );
    push(
        "dram.ns_per_cmd.pim",
        time_per_unit(reps, n(2_000), || {
            pim_block(&mut Channel::new(&dram, &timing), 64)
        }),
    );
    push("dram.ns_per_decode", decode(reps, n(200_000)));
    push("noc.ns_per_cycle.vc1", noc(reps, VcMode::Shared, n(4_000)));
    push(
        "noc.ns_per_cycle.vc2",
        noc(reps, VcMode::SplitPim, n(4_000)),
    );
    push(
        "mc.ns_per_cycle.fr-fcfs",
        controller(reps, PolicyKind::FrFcfs, n(16_000)),
    );
    push(
        "mc.ns_per_cycle.f3fs",
        controller(reps, PolicyKind::f3fs_competitive(), n(16_000)),
    );
    push("l2.ns_per_access", l2(reps, n(200_000)));
    out
}

/// Median over `reps` of (time of `iters` calls) / (units they report).
fn time_per_unit(reps: usize, iters: u64, mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut units = 0;
            for _ in 0..iters {
                units += black_box(f());
            }
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Issues `cmd` at the first legal cycle at or after `*now`.
fn issue_when_ready(ch: &mut Channel, cmd: DramCommand, now: &mut u64) {
    while !ch.can_issue(cmd, *now) {
        *now += 1;
    }
    ch.issue(cmd, *now);
}

/// A read stream on one bank, forcing a row conflict every fourth access
/// unless `same_row`. Returns the commands issued.
fn run_stream(ch: &mut Channel, reads: u64, same_row: bool) -> u64 {
    let mut now = 0u64;
    let mut row = 0u32;
    let mut cmds = 1;
    ch.issue(DramCommand::Act { bank: 0, row }, now);
    for i in 0..reads {
        if !same_row && i > 0 && i % 4 == 0 {
            now += 1;
            issue_when_ready(ch, DramCommand::Pre { bank: 0 }, &mut now);
            row += 1;
            now += 1;
            issue_when_ready(ch, DramCommand::Act { bank: 0, row }, &mut now);
            cmds += 2;
        }
        now += 1;
        issue_when_ready(ch, DramCommand::Read { bank: 0 }, &mut now);
        cmds += 1;
    }
    black_box(now);
    cmds
}

/// One all-bank activate followed by `ops` lock-step PIM ops.
fn pim_block(ch: &mut Channel, ops: u64) -> u64 {
    let mut now = 0u64;
    ch.issue(DramCommand::PimActAll { row: 0 }, now);
    let mut done = 0;
    while done < ops {
        now += 1;
        if ch.can_issue(DramCommand::PimOp { writes_row: false }, now) {
            ch.issue(DramCommand::PimOp { writes_row: false }, now);
            done += 1;
        }
    }
    black_box(now);
    ops + 1
}

fn decode(reps: usize, iters: u64) -> f64 {
    let cfg = SystemConfig::default();
    let mapper = AddressMapper::new(&cfg.addr_map, &cfg.dram, cfg.dram_word_bytes());
    let mut a = 0u64;
    time_per_unit(reps, 1, || {
        for _ in 0..iters {
            a = a.wrapping_add(0x9e37_79b9_7f4a_7c15) & ((1 << 40) - 1);
            black_box(mapper.decode(PhysAddr(a)));
        }
        iters
    })
}

fn mem_req(id: u64, src: u16, addr: u64, now: u64) -> Request {
    Request::new(
        RequestId(id),
        AppId::GPU,
        RequestKind::MemRead,
        PhysAddr(addr),
        src,
        now,
    )
}

fn pim_req(id: u64, src: u16, cmd: PimCommand, now: u64) -> Request {
    Request::new(
        RequestId(id),
        AppId::PIM,
        RequestKind::Pim(cmd),
        PhysAddr(id << 5),
        src,
        now,
    )
}

/// 80 SMs (8 PIM, 72 MEM) injecting into 32 outputs every cycle.
fn noc(reps: usize, vc: VcMode, cycles: u64) -> f64 {
    time_per_unit(reps, 1, || {
        let mut x = Crossbar::new(80, 32, 512, vc);
        let mut id = 0u64;
        for now in 0..cycles {
            for sm in 0..80u16 {
                let req = if sm < 8 {
                    let cmd = PimCommand {
                        op: PimOpKind::RfLoad,
                        channel: (id % 32) as u16,
                        row: 0,
                        col: 0,
                        rf_entry: 0,
                        block_start: false,
                        block_id: id,
                    };
                    pim_req(id, sm, cmd, 0)
                } else {
                    mem_req(id, sm, id * 32, 0)
                };
                let dest = (id % 32) as usize;
                if x.can_inject(sm as usize, req.kind.is_pim()) {
                    x.try_inject(now, sm as usize, req, dest)
                        .expect("can_inject said yes");
                    id += 1;
                }
            }
            x.step(now, |_, _, _| true);
        }
        cycles
    })
}

/// One controller fed two MEM and two PIM arrivals per DRAM cycle.
fn controller(reps: usize, policy: PolicyKind, cycles: u64) -> f64 {
    let cfg = SystemConfig::default();
    let mapper = AddressMapper::new(&cfg.addr_map, &cfg.dram, cfg.dram_word_bytes());
    time_per_unit(reps, 1, || {
        let mut mc = MemoryController::new(&cfg, policy.build());
        let (mut id, mut mem_addr, mut pim_op) = (0u64, 0u64, 0u64);
        let mut drained = Vec::new();
        for now in 0..cycles {
            for _ in 0..2 {
                if mc.can_accept(false) {
                    let req = mem_req(id, 0, mem_addr, now);
                    mem_addr += 0x2000;
                    mc.enqueue(req, mapper.decode(req.addr), now);
                    id += 1;
                }
                if mc.can_accept(true) {
                    let block = pim_op / 16;
                    let cmd = PimCommand {
                        op: PimOpKind::RfLoad,
                        channel: 0,
                        row: (block % 512) as u32,
                        col: (pim_op % 16) as u16,
                        rf_entry: (pim_op % 8) as u8,
                        block_start: pim_op.is_multiple_of(16),
                        block_id: block,
                    };
                    mc.enqueue(pim_req(id, 0, cmd, now), Default::default(), now);
                    id += 1;
                    pim_op += 1;
                }
            }
            mc.step(now);
            drained.clear();
            mc.pop_completions_into(now, &mut drained);
        }
        cycles
    })
}

/// Lookups on one L2 slice over a working set twice its size, with half
/// the accesses re-touching a recent line; each miss is filled at once,
/// so MSHRs never run out.
fn l2(reps: usize, accesses: u64) -> f64 {
    let cfg = CacheConfig::default();
    let slices = 32;
    let span_lines = (cfg.total_bytes / slices / cfg.line_bytes * 2) as u64;
    time_per_unit(reps, 1, || {
        let mut slice = CacheSlice::new(&cfg, slices);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut recent = [0u64; 16];
        for i in 0..accesses {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = if x & 1 == 0 {
                recent[(x >> 8) as usize % recent.len()]
            } else {
                (x >> 16) % span_lines
            };
            recent[i as usize % recent.len()] = line;
            let addr = PhysAddr(line * cfg.line_bytes as u64);
            let kind = if x & 2 == 0 {
                RequestKind::MemRead
            } else {
                RequestKind::MemWrite
            };
            let req = Request::new(RequestId(i), AppId::GPU, kind, addr, 0, i);
            if slice.access(req, i) == AccessOutcome::MissAllocated {
                black_box(slice.fill(slice.line_addr(addr), i));
            }
        }
        accesses
    })
}
