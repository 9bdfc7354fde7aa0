//! Property-style tests on the core substrates: the address mapper
//! bijection, DRAM timing legality under arbitrary request streams,
//! crossbar conservation, and policy sanity under arbitrary queue
//! contents. Inputs are drawn from the workspace's deterministic PRNG
//! (`pimsim_types::rng::SplitMix64`), so every case is reproducible from
//! the loop seed printed in an assertion message.

use pim_coscheduling::core::policy::{PolicyKind, PolicyView};
use pim_coscheduling::core::queue::QueuedRequest;
use pim_coscheduling::core::MemoryController;
use pim_coscheduling::dram::{AddressMapper, Channel, DramCommand};
use pim_coscheduling::noc::Crossbar;
use pim_coscheduling::types::rng::SplitMix64;
use pim_coscheduling::types::{
    AddressMapConfig, AppId, DecodedAddr, DramTiming, Mode, PhysAddr, PimCommand, PimOpKind,
    Request, RequestId, RequestKind, SystemConfig, VcMode,
};

fn mapper(ipoly: bool) -> AddressMapper {
    let cfg = SystemConfig::default();
    let map = if ipoly {
        AddressMapConfig::IPolyHash
    } else {
        cfg.addr_map.clone()
    };
    AddressMapper::new(&map, &cfg.dram, cfg.dram_word_bytes())
}

/// decode then encode is the identity on word-aligned addresses (both
/// mapping schemes), i.e. the mapping is a bijection.
#[test]
fn address_mapping_roundtrips() {
    let mut rng = SplitMix64::new(0xA11);
    for case in 0..512 {
        let addr = rng.next_range(1 << 50);
        let ipoly = rng.chance(0.5);
        let m = mapper(ipoly);
        let aligned = addr & !31;
        let d = m.decode(PhysAddr(aligned));
        assert_eq!(
            m.encode(d.channel, d.bank, d.row, d.col).0,
            aligned,
            "case {case}: addr {aligned:#x} ipoly={ipoly}"
        );
    }
}

/// The latency histogram's quantiles are monotone in p and bounded by the
/// observed max, for arbitrary observation streams.
#[test]
fn histogram_quantiles_are_monotone() {
    use pim_coscheduling::stats::Histogram;
    let mut rng = SplitMix64::new(0xB22);
    for case in 0..64 {
        let n = 1 + rng.next_range(299) as usize;
        let mut h = Histogram::new();
        for _ in 0..n {
            h.record(rng.next_range(1_000_000));
        }
        let mut last = 0u64;
        for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let q = h.quantile(p).expect("nonempty");
            assert!(q >= last, "case {case}: quantiles must be monotone");
            assert!(q <= h.max(), "case {case}: quantile exceeds max");
            last = q;
        }
        assert_eq!(h.count(), n as u64);
    }
}

/// Decoded coordinates always respect the geometry.
#[test]
fn decoded_coordinates_in_range() {
    let cfg = SystemConfig::default();
    let mut rng = SplitMix64::new(0xC33);
    for case in 0..512 {
        let addr = rng.next_range(1 << 50);
        let ipoly = rng.chance(0.5);
        let m = mapper(ipoly);
        let d = m.decode(PhysAddr(addr));
        assert!(
            (d.channel as usize) < cfg.dram.channels,
            "case {case}: channel"
        );
        assert!((d.bank as usize) < cfg.dram.banks, "case {case}: bank");
        assert!(d.col < cfg.dram.cols_per_row, "case {case}: col");
    }
}

/// Issuing any sequence of commands that `can_issue` admits never panics
/// and never leaves a bank in an inconsistent row state.
#[test]
fn dram_legal_sequences_never_panic() {
    let cfg = SystemConfig::default();
    let mut rng = SplitMix64::new(0xD44);
    for _case in 0..64 {
        let mut ch = Channel::new(&cfg.dram, &cfg.timing);
        let mut now = 0u64;
        let len = 1 + rng.next_range(199);
        for _ in 0..len {
            now += 1;
            let op = rng.next_range(6) as u8;
            let bank = rng.next_range(16) as usize;
            let row = rng.next_range(64) as u32;
            let cmd = match op {
                0 => DramCommand::Act { bank, row },
                1 => DramCommand::Pre { bank },
                2 => DramCommand::Read { bank },
                3 => DramCommand::Write { bank },
                4 => DramCommand::PimActAll { row },
                _ => DramCommand::PimOp {
                    writes_row: row.is_multiple_of(2),
                },
            };
            if ch.can_issue(cmd, now) {
                ch.issue(cmd, now);
            }
            // Row state must be a function of Act/Pre only: open_row never
            // reports a row that was never activated.
            for b in 0..ch.num_banks() {
                if let Some(r) = ch.open_row(b) {
                    assert!(r < cfg.dram.rows_per_bank);
                }
            }
        }
    }
}

/// The crossbar neither loses nor duplicates flits, under either VC
/// configuration and with one or two iSlip iterations.
#[test]
fn crossbar_conserves_flits() {
    let mut rng = SplitMix64::new(0xE55);
    for case in 0..64 {
        let vc2 = rng.chance(0.5);
        let iterations = 1 + rng.next_range(2) as usize;
        let mode = if vc2 {
            VcMode::SplitPim
        } else {
            VcMode::Shared
        };
        let mut x = Crossbar::new(8, 4, 64, mode).with_iterations(iterations);
        let mut injected = 0u64;
        let mut delivered = Vec::new();
        let n_routes = 1 + rng.next_range(199);
        for id in 0..n_routes {
            let src = rng.next_range(8) as usize;
            let dest = rng.next_range(4) as usize;
            let req = Request::new(
                RequestId(id),
                AppId::GPU,
                RequestKind::MemRead,
                PhysAddr(id * 32),
                src as u16,
                0,
            );
            if x.try_inject(0, src, req, dest).is_ok() {
                injected += 1;
            }
        }
        for now in 0..10_000 {
            if x.total_occupancy() == 0 {
                break;
            }
            x.step(now, |_, _, r| {
                delivered.push(r.id.0);
                true
            });
        }
        assert_eq!(delivered.len() as u64, injected, "case {case}: lost flits");
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            delivered.len(),
            "case {case}: duplicate delivery"
        );
    }
}

/// Policies always answer `desired_mode` with a servable mode: if the
/// chosen mode's queue is empty, the other queue must be too.
#[test]
fn policies_never_select_an_empty_mode() {
    let mut rng = SplitMix64::new(0xF66);
    for case in 0..128 {
        let n_mem = rng.next_range(8) as usize;
        let n_pim = rng.next_range(8) as usize;
        let mem_mode = rng.chance(0.5);
        // The controller's MEM queue is age-sorted with unique ages.
        let mut mem_ages: Vec<u64> = (0..n_mem).map(|_| rng.next_range(1000)).collect();
        mem_ages.sort_unstable();
        mem_ages.dedup();
        let mem: Vec<QueuedRequest> = mem_ages
            .iter()
            .enumerate()
            .map(|(i, &age)| QueuedRequest {
                req: Request::new(
                    RequestId(age),
                    AppId::GPU,
                    RequestKind::MemRead,
                    PhysAddr(age * 32),
                    0,
                    0,
                ),
                decoded: DecodedAddr {
                    channel: 0,
                    bank: (i % 16) as u16,
                    row: age as u32 % 8,
                    col: 0,
                },
                age,
                arrived: 0,
                opened_row: false,
            })
            .collect();
        let mut pim_ages: Vec<u64> = (0..n_pim).map(|_| rng.next_range(1000)).collect();
        pim_ages.sort_unstable();
        let pim: std::collections::VecDeque<QueuedRequest> = pim_ages
            .iter()
            .map(|&age| QueuedRequest {
                req: Request::new(
                    RequestId(age),
                    AppId::PIM,
                    RequestKind::Pim(PimCommand {
                        op: PimOpKind::RfLoad,
                        channel: 0,
                        row: age as u32 % 8,
                        col: 0,
                        rf_entry: 0,
                        block_start: age % 3 == 0,
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
            })
            .collect();
        let open_rows = vec![None; 16];
        for kind in PolicyKind::all() {
            let mut p = kind.build();
            let mode = if mem_mode { Mode::Mem } else { Mode::Pim };
            let view = PolicyView::new(0, mode, &mem, &pim, &open_rows);
            let desired = p.desired_mode(&view);
            let desired_len = match desired {
                Mode::Mem => mem.len(),
                Mode::Pim => pim.len(),
            };
            let other_len = match desired {
                Mode::Mem => pim.len(),
                Mode::Pim => mem.len(),
            };
            assert!(
                desired_len > 0 || other_len == 0,
                "case {case}: {} picked empty {desired} with the other queue nonempty",
                p.name()
            );
        }
    }
}

/// `Channel::earliest_issue` is exact: with no intervening command, the
/// brute-force per-cycle oracle (`can_issue` scanned cycle by cycle)
/// finds the command illegal at every cycle before the returned one and
/// legal at it; `None` means no cycle in a long window works. Legality
/// is monotone in time for a frozen channel state (every constraint is
/// `t >= constant`), so scanning a bounded window before the predicted
/// cycle is a complete check.
#[test]
fn earliest_issue_matches_brute_force_scan() {
    let hbm = SystemConfig::default();
    let lp5x = pim_coscheduling::dram::backend::system_config(
        pim_coscheduling::dram::backend::parse_spec("lp5x:ranks=4").expect("registered backend"),
    );
    // LP5X must exercise the rolling-window constraints that HBM's Table I
    // preset leaves disabled (`t_faw`/`t_wtr` = 0); if the preset ever
    // regressed to 0 the backend would silently bypass those paths.
    assert!(
        lp5x.timing.t_faw > 0 && lp5x.timing.t_wtr > 0,
        "LP5X preset must enable tFAW/tWTR"
    );
    let variants = [
        ("hbm", hbm.dram.clone(), DramTiming::default()),
        (
            "hbm+faw/wtr",
            hbm.dram.clone(),
            DramTiming {
                t_faw: 20,
                t_wtr: 8,
                ..DramTiming::default()
            },
        ),
        ("lp5x", lp5x.dram.clone(), lp5x.timing.clone()),
    ];
    let mut rng = SplitMix64::new(0x5EED);
    for (v, dram, timing) in variants.iter() {
        for case in 0..32 {
            let mut ch = Channel::new(dram, timing);
            let mut now = 0u64;
            for step in 0..300 {
                let bank = rng.next_range(dram.banks as u64) as usize;
                let row = rng.next_range(8) as u32;
                let cmd = match rng.next_range(9) {
                    0 => DramCommand::Act { bank, row },
                    1 => DramCommand::Pre { bank },
                    2 => DramCommand::Read { bank },
                    3 => DramCommand::Write { bank },
                    4 => DramCommand::ReadAuto { bank },
                    5 => DramCommand::WriteAuto { bank },
                    6 => DramCommand::PimActAll { row },
                    7 => DramCommand::PreAll,
                    _ => DramCommand::PimOp {
                        writes_row: row.is_multiple_of(2),
                    },
                };
                match ch.earliest_issue(cmd, now) {
                    None => {
                        for t in now..now + 64 {
                            assert!(
                                !ch.can_issue(cmd, t),
                                "variant {v} case {case} step {step}: \
                                 earliest_issue({cmd:?}, {now}) = None but legal at {t}"
                            );
                        }
                    }
                    Some(e) => {
                        assert!(
                            e >= now,
                            "variant {v} case {case} step {step}: earliest {e} before now {now}"
                        );
                        for t in now.max(e.saturating_sub(96))..e {
                            assert!(
                                !ch.can_issue(cmd, t),
                                "variant {v} case {case} step {step}: \
                                 {cmd:?} legal at {t}, before predicted earliest {e}"
                            );
                        }
                        assert!(
                            ch.can_issue(cmd, e),
                            "variant {v} case {case} step {step}: \
                             {cmd:?} illegal at its own earliest cycle {e}"
                        );
                        // Sometimes take the command, sometimes let time pass,
                        // so the walk explores varied channel states.
                        if rng.chance(0.7) {
                            ch.issue(cmd, e);
                            now = e + rng.next_range(4);
                        } else {
                            now += rng.next_range(6);
                        }
                    }
                }
            }
        }
    }
}

/// The controller's stall memo is unobservable: a controller with the
/// memo enabled and one forced to take a full step every cycle (the
/// brute-force oracle, via `set_stall_enabled(false)`) accept the same
/// requests, emit the same completions in the same cycles, agree on the
/// idleness probe every cycle, and end with bit-identical stats — for
/// every policy, with and without refresh.
#[test]
fn stall_memo_matches_full_step_oracle() {
    check_stall_memo_against_oracle(&PolicyKind::all(), &[AppId::GPU], 0x57A11);
}

/// The MEM candidate index (DESIGN.md §4g) stays exact while the inputs
/// it caches move under it: MEM traffic from two apps, so BLISS
/// blacklists grow and clear (short interval) and per-app classes
/// diverge; a small FR-FCFS-Cap cap, so the class table flips between
/// row-hit-first and age order; and refresh, which closes open rows
/// behind the controller's back. Debug builds cross-check the index
/// against a full queue scan on every MEM-mode step, so a missed
/// dirtying rule fails here as a divergence assertion.
#[test]
fn mem_candidate_index_matches_full_scan_under_moving_classes() {
    let mut kinds = PolicyKind::all();
    kinds.push(PolicyKind::Bliss {
        threshold: 2,
        clear_interval: 400,
    });
    kinds.push(PolicyKind::FrFcfsCap { cap: 4 });
    check_stall_memo_against_oracle(&kinds, &[AppId::GPU, AppId(2)], 0x1D3A);
}

/// Drives a stall-memo controller and a brute-force one (memo off) with
/// the same random MEM/PIM traffic, MEM requests drawn from `mem_apps`,
/// for each of `kinds` with refresh off and on, and requires identical
/// completions, modes, idleness and final stats.
fn check_stall_memo_against_oracle(kinds: &[PolicyKind], mem_apps: &[AppId], seed: u64) {
    for refresh in [false, true] {
        let mut cfg = SystemConfig::default();
        if refresh {
            cfg.timing.t_refi = 300;
            cfg.timing.t_rfc = 40;
        }
        let m = AddressMapper::new(&cfg.addr_map, &cfg.dram, 32);
        for &kind in kinds {
            let mut rng = SplitMix64::new(seed ^ u64::from(refresh));
            let mut fast = MemoryController::new(&cfg, kind.build());
            let mut oracle = MemoryController::new(&cfg, kind.build());
            oracle.set_stall_enabled(false);
            // Isolate the stall memo: burst retirement has its own oracle
            // test (`burst_retirement_matches_full_step_oracle`).
            fast.set_burst_enabled(false);
            oracle.set_burst_enabled(false);
            let ctx = |now: u64| format!("policy {} refresh {refresh} cycle {now}", kind.label());
            let mut fast_done = Vec::new();
            let mut oracle_done = Vec::new();
            let mut next_id = 0u64;
            let mut pim_block = 0u64;
            let mut pim_in_block = 0usize;
            for now in 0..8_000u64 {
                if now < 3_000 && rng.chance(0.35) {
                    let is_pim = rng.chance(0.4);
                    assert_eq!(
                        fast.can_accept(is_pim),
                        oracle.can_accept(is_pim),
                        "{}",
                        ctx(now)
                    );
                    if fast.can_accept(is_pim) {
                        let (req, decoded) = if is_pim {
                            let cmd = PimCommand {
                                op: PimOpKind::RfLoad,
                                channel: 0,
                                row: (pim_block % 8) as u32,
                                col: (pim_in_block % 4) as u16,
                                rf_entry: (pim_in_block % 8) as u8,
                                block_start: pim_in_block == 0,
                                block_id: pim_block,
                            };
                            pim_in_block += 1;
                            if pim_in_block == 4 {
                                pim_in_block = 0;
                                pim_block += 1;
                            }
                            (
                                Request::new(
                                    RequestId(next_id),
                                    AppId::PIM,
                                    RequestKind::Pim(cmd),
                                    PhysAddr(0),
                                    0,
                                    0,
                                ),
                                DecodedAddr {
                                    channel: 0,
                                    bank: 0,
                                    row: cmd.row,
                                    col: 0,
                                },
                            )
                        } else {
                            let addr = PhysAddr(rng.next_range(1 << 20) * 32);
                            let kind = if rng.chance(0.3) {
                                RequestKind::MemWrite
                            } else {
                                RequestKind::MemRead
                            };
                            let app = if mem_apps.len() > 1 {
                                mem_apps[rng.next_range(mem_apps.len() as u64) as usize]
                            } else {
                                mem_apps[0]
                            };
                            (
                                Request::new(RequestId(next_id), app, kind, addr, 0, 0),
                                m.decode(addr),
                            )
                        };
                        next_id += 1;
                        fast.enqueue(req, decoded, now);
                        oracle.enqueue(req, decoded, now);
                    }
                }
                // Probe soundness: never points into the past, and agrees
                // with the brute-force oracle about idleness (the probe
                // must not report "busy forever" for a quiesced
                // controller, nor idle while work remains).
                let probe = fast.next_activity_cycle(now);
                if let Some(at) = probe {
                    assert!(at >= now, "{}: probe {at} in the past", ctx(now));
                }
                assert_eq!(
                    probe.is_none(),
                    oracle.next_activity_cycle(now).is_none(),
                    "{}: stall memo and oracle disagree on idleness",
                    ctx(now)
                );
                fast.step(now);
                oracle.step(now);
                fast_done.clear();
                oracle_done.clear();
                fast.pop_completions_into(now, &mut fast_done);
                oracle.pop_completions_into(now, &mut oracle_done);
                assert_eq!(fast_done, oracle_done, "{}", ctx(now));
                // Asked every cycle, each completion leaves on its own
                // cycle, never early: equal lists alone would pass if
                // both controllers handed acks out early.
                assert!(
                    fast_done.iter().all(|c| c.at == now),
                    "{}: completion left off its cycle: {fast_done:?}",
                    ctx(now)
                );
                assert_eq!(fast.mode(), oracle.mode(), "{}", ctx(now));
            }
            assert_eq!(fast.stats(), oracle.stats(), "{} final stats", kind.label());
            assert_eq!(
                fast.stats().mem_arrivals + fast.stats().pim_arrivals,
                next_id,
                "{}: traffic lost",
                kind.label()
            );
            assert!(
                fast.is_idle(8_000),
                "{}: controller failed to drain",
                kind.label()
            );
        }
    }
}

/// Random single-channel traffic for the burst and span oracles. Before
/// cycle 3 000 a request arrives on 35 % of the cycles it is asked about,
/// 40 % of them PIM ops in 4-op blocks over 8 rows; the rest are GPU MEM
/// reads and writes at random addresses.
struct Traffic {
    rng: SplitMix64,
    next_id: u64,
    pim_block: u64,
    pim_in_block: usize,
}

impl Traffic {
    fn new(seed: u64) -> Self {
        Traffic {
            rng: SplitMix64::new(seed),
            next_id: 0,
            pim_block: 0,
            pim_in_block: 0,
        }
    }

    /// Whether a request arrives at `now`, and if so whether it is PIM.
    fn arrival(&mut self, now: u64) -> Option<bool> {
        (now < 3_000 && self.rng.chance(0.35)).then(|| self.rng.chance(0.4))
    }

    /// The next request of the kind `arrival` drew, once the controller
    /// has room for it.
    fn request(&mut self, is_pim: bool, m: &AddressMapper) -> (Request, DecodedAddr) {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        if !is_pim {
            let addr = PhysAddr(self.rng.next_range(1 << 20) * 32);
            let kind = if self.rng.chance(0.3) {
                RequestKind::MemWrite
            } else {
                RequestKind::MemRead
            };
            return (
                Request::new(id, AppId::GPU, kind, addr, 0, 0),
                m.decode(addr),
            );
        }
        // Last op of each block stores (a row write, exercising the
        // burst's write-latency arm) from entry 0, which the block's first
        // op always loaded.
        let store = self.pim_in_block == 3;
        let cmd = PimCommand {
            op: if store {
                PimOpKind::RfStore
            } else {
                PimOpKind::RfLoad
            },
            channel: 0,
            row: (self.pim_block % 8) as u32,
            col: (self.pim_in_block % 4) as u16,
            rf_entry: if store {
                0
            } else {
                (self.pim_in_block % 8) as u8
            },
            block_start: self.pim_in_block == 0,
            block_id: self.pim_block,
        };
        self.pim_in_block += 1;
        if self.pim_in_block == 4 {
            self.pim_in_block = 0;
            self.pim_block += 1;
        }
        let decoded = DecodedAddr {
            channel: 0,
            bank: 0,
            row: cmd.row,
            col: 0,
        };
        (
            Request::new(id, AppId::PIM, RequestKind::Pim(cmd), PhysAddr(0), 0, 0),
            decoded,
        )
    }
}

/// Closed-form burst retirement is unobservable: a controller with the
/// burst plan and stall memo enabled (the production configuration) and
/// one forced to schedule every cycle through the full per-cycle path
/// (both fast paths disabled) accept the same requests, emit the same
/// completions in the same cycles, and end with bit-identical stats —
/// for every policy, with and without refresh. The step mix is the only
/// thing allowed to differ, and the test also checks the mechanism
/// actually engages: across the policy sweep some cycles must have been
/// retired through burst plans.
#[test]
fn burst_retirement_matches_full_step_oracle() {
    // Swept over both registered DRAM backends: the LP5X preset keeps
    // `t_faw`/`t_wtr` nonzero, so the closed form must agree with the
    // per-cycle oracle under the rolling-window constraints too.
    for spec in ["hbm", "lp5x:ranks=4"] {
        let backend = pim_coscheduling::dram::backend::parse_spec(spec).expect("registered");
        for refresh in [false, true] {
            let mut cfg = pim_coscheduling::dram::backend::system_config(backend);
            if refresh {
                cfg.timing.t_refi = 300;
                cfg.timing.t_rfc = 40;
            }
            let m = AddressMapper::new(&cfg.addr_map, &cfg.dram, 32);
            let mut swept_burst_ops = 0u64;
            for kind in PolicyKind::all() {
                let mut traffic = Traffic::new(0xB0857 ^ u64::from(refresh));
                let mut fast = MemoryController::new(&cfg, kind.build());
                let mut oracle = MemoryController::new(&cfg, kind.build());
                oracle.set_stall_enabled(false);
                oracle.set_burst_enabled(false);
                let ctx = |now: u64| {
                    format!(
                        "{spec} policy {} refresh {refresh} cycle {now}",
                        kind.label()
                    )
                };
                let mut fast_done = Vec::new();
                let mut oracle_done = Vec::new();
                for now in 0..8_000u64 {
                    if let Some(is_pim) = traffic.arrival(now) {
                        assert_eq!(
                            fast.can_accept(is_pim),
                            oracle.can_accept(is_pim),
                            "{}",
                            ctx(now)
                        );
                        if fast.can_accept(is_pim) {
                            let (req, decoded) = traffic.request(is_pim, &m);
                            fast.enqueue(req, decoded, now);
                            oracle.enqueue(req, decoded, now);
                        }
                    }
                    assert_eq!(fast.pim_q_len(), oracle.pim_q_len(), "{}", ctx(now));
                    let probe = fast.next_activity_cycle(now);
                    if let Some(at) = probe {
                        assert!(at >= now, "{}: probe {at} in the past", ctx(now));
                    }
                    assert_eq!(
                        probe.is_none(),
                        oracle.next_activity_cycle(now).is_none(),
                        "{}: burst plan and oracle disagree on idleness",
                        ctx(now)
                    );
                    fast.step(now);
                    oracle.step(now);
                    fast_done.clear();
                    oracle_done.clear();
                    fast.pop_completions_into(now, &mut fast_done);
                    oracle.pop_completions_into(now, &mut oracle_done);
                    assert_eq!(fast_done, oracle_done, "{}", ctx(now));
                    // A plan deposits all its acks at creation: asked every
                    // cycle, each must still leave on its own cycle. Equal
                    // lists alone would pass if both drained early.
                    assert!(
                        fast_done.iter().all(|c| c.at == now),
                        "{}: completion left off its cycle: {fast_done:?}",
                        ctx(now)
                    );
                    assert_eq!(fast.mode(), oracle.mode(), "{}", ctx(now));
                    // Stats must agree at EVERY cycle, not just at the end:
                    // the simulator snapshots stats whenever a run stops, and
                    // a stop can land mid-plan (kernel restarts truncate
                    // runs). Eagerly accounting a whole plan at creation
                    // passed the end-of-run check while skewing every
                    // mid-plan snapshot — this is the assertion that pins
                    // per-op accounting to the analytic issue ticks.
                    assert_eq!(fast.stats(), oracle.stats(), "{}: stats skew", ctx(now));
                    assert_eq!(
                        fast.channel_stats(),
                        oracle.channel_stats(),
                        "{}: channel stats skew",
                        ctx(now)
                    );
                }
                assert_eq!(fast.stats(), oracle.stats(), "{} final stats", kind.label());
                assert!(
                    fast.is_idle(8_000),
                    "{}: controller failed to drain",
                    kind.label()
                );
                assert_eq!(
                    oracle.step_mix().burst_ops,
                    0,
                    "{}: disabled oracle still planned bursts",
                    kind.label()
                );
                swept_burst_ops += fast.step_mix().burst_ops;
            }
            assert!(
                swept_burst_ops > 0,
                "{spec} refresh {refresh}: no policy ever engaged burst retirement"
            );
        }
    }
}

/// Span replay is unobservable: a controller advanced through
/// `replay_span` in spans of random length — stepping one tick wherever
/// it refuses — and one stepped every tick see the same random traffic
/// and end every span with identical stats, channel stats and
/// completions in `(at, id)` order, and the same step mix apart from the
/// span count — for every policy on both DRAM backends, with and without
/// refresh. Spans end where traffic arrives, as ingest ends them in the
/// simulator. Both window kinds, stalls and burst plans, must replay
/// spans somewhere in each sweep.
#[test]
fn span_replay_matches_per_tick_stepping() {
    for spec in ["hbm", "lp5x:ranks=4"] {
        let backend = pim_coscheduling::dram::backend::parse_spec(spec).expect("registered");
        for refresh in [false, true] {
            let mut cfg = pim_coscheduling::dram::backend::system_config(backend);
            if refresh {
                cfg.timing.t_refi = 300;
                cfg.timing.t_rfc = 40;
            }
            let m = AddressMapper::new(&cfg.addr_map, &cfg.dram, 32);
            let (mut spans, mut plan_spans) = (0u64, 0u64);
            for kind in PolicyKind::all() {
                let mut traffic = Traffic::new(0x5BA4 ^ u64::from(refresh));
                let mut lengths = SplitMix64::new(0x5BA5);
                let mut ticked = MemoryController::new(&cfg, kind.build());
                let mut spanned = MemoryController::new(&cfg, kind.build());
                let ctx = |now: u64| {
                    format!(
                        "{spec} policy {} refresh {refresh} span ending {now}",
                        kind.label()
                    )
                };
                let mut ticked_done = Vec::new();
                let mut spanned_done = Vec::new();
                let mut now = 0u64;
                while now < 8_000 {
                    if let Some(is_pim) = traffic.arrival(now) {
                        assert_eq!(
                            ticked.can_accept(is_pim),
                            spanned.can_accept(is_pim),
                            "{}",
                            ctx(now)
                        );
                        if ticked.can_accept(is_pim) {
                            let (req, decoded) = traffic.request(is_pim, &m);
                            ticked.enqueue(req, decoded, now);
                            spanned.enqueue(req, decoded, now);
                        }
                    }
                    let end = (now + 1 + lengths.next_range(24)).min(8_000);
                    for t in now..end {
                        ticked.step(t);
                        ticked.pop_completions_into(t, &mut ticked_done);
                    }
                    let mut t = now;
                    while t < end {
                        if spanned.replay_span(t, end - t) {
                            spans += 1;
                            spanned.pop_completions_into(end - 1, &mut spanned_done);
                            t = end;
                        } else {
                            spanned.step(t);
                            spanned.pop_completions_into(t, &mut spanned_done);
                            t += 1;
                        }
                    }
                    let here = ctx(end - 1);
                    assert_eq!(spanned.stats(), ticked.stats(), "{here}: stats skew");
                    assert_eq!(
                        spanned.channel_stats(),
                        ticked.channel_stats(),
                        "{here}: channel stats skew"
                    );
                    assert_eq!(spanned_done, ticked_done, "{here}: completions differ");
                    spanned_done.clear();
                    ticked_done.clear();
                    now = end;
                }
                assert!(
                    spanned.is_idle(now),
                    "{}: controller failed to drain",
                    ctx(now)
                );
                let span_mix = spanned.step_mix();
                plan_spans += span_mix.plan_spans_replayed;
                let tick_mix = pim_coscheduling::core::StepMix {
                    plan_spans_replayed: span_mix.plan_spans_replayed,
                    ..ticked.step_mix()
                };
                assert_eq!(span_mix, tick_mix, "{}: step mix differs", ctx(now));
            }
            assert!(
                plan_spans > 0 && spans > plan_spans,
                "{spec} refresh {refresh}: {spans} spans replayed, {plan_spans} of them plans; \
                 both window kinds must replay spans"
            );
        }
    }
}

/// The controller conserves requests for arbitrary small mixes.
#[test]
fn controller_conserves_arbitrary_mixes() {
    let cfg = SystemConfig::default();
    let m = AddressMapper::new(&cfg.addr_map, &cfg.dram, 32);
    let mut rng = SplitMix64::new(0xAB7);
    for case in 0..48 {
        let n_mem = rng.next_range(24) as usize;
        let n_pim = rng.next_range(24) as usize;
        let policy = PolicyKind::all()[rng.next_range(PolicyKind::all().len() as u64) as usize];
        let mut mc = MemoryController::new(&cfg, policy.build());
        let mut expected = 0u64;
        for i in 0..n_mem.max(n_pim) {
            if i < n_mem {
                let addr = PhysAddr((i as u64) * 0x740); // varied banks/rows
                let req = Request::new(
                    RequestId(expected),
                    AppId::GPU,
                    if i % 3 == 0 {
                        RequestKind::MemWrite
                    } else {
                        RequestKind::MemRead
                    },
                    addr,
                    0,
                    0,
                );
                mc.enqueue(req, m.decode(addr), 0);
                expected += 1;
            }
            if i < n_pim {
                let cmd = PimCommand {
                    op: PimOpKind::RfLoad,
                    channel: 0,
                    row: (i / 4) as u32,
                    col: (i % 4) as u16,
                    rf_entry: (i % 8) as u8,
                    block_start: i % 4 == 0,
                    block_id: (i / 4) as u64,
                };
                let req = Request::new(
                    RequestId(expected),
                    AppId::PIM,
                    RequestKind::Pim(cmd),
                    PhysAddr(0),
                    0,
                    0,
                );
                mc.enqueue(
                    req,
                    DecodedAddr {
                        channel: 0,
                        bank: 0,
                        row: cmd.row,
                        col: 0,
                    },
                    0,
                );
                expected += 1;
            }
        }
        let mut done = 0u64;
        let mut drained = Vec::new();
        for now in 0..200_000u64 {
            mc.step(now);
            drained.clear();
            mc.pop_completions_into(now, &mut drained);
            done += drained.len() as u64;
            if done == expected && mc.is_idle(now) {
                break;
            }
        }
        assert_eq!(
            done,
            expected,
            "case {case}: {} lost requests",
            policy.label()
        );
    }
}
