//! Fast-path equivalence against the reference simulator. Every fast
//! path — fast-forward, partition lag, the controllers' stall memo and
//! burst plans, the issue stage's wake table and the reply gate — must
//! leave every observable of a run identical to [`Runner::reference`],
//! the same run with all of them off: total cycles, injections (or
//! first-run cycles and starvation), merged controller stats, and the
//! cycle, slot and request ID of every completion each kernel receives,
//! in order.

use std::sync::{Arc, Mutex};

use pim_coscheduling::core::policy::PolicyKind;
use pim_coscheduling::core::McStats;
use pim_coscheduling::gpu::IssuedRequest;
use pim_coscheduling::sim::experiments::sweep::parallel_map;
use pim_coscheduling::sim::{KernelModel, Runner, Simulator};
use pim_coscheduling::types::{Cycle, Mode, RequestId, SystemConfig, VcMode};
use pim_coscheduling::workloads::{
    gpu_kernel, pim_kernel, pim_suite::PimBenchmark, rodinia::GpuBenchmark,
};

const SCALE: f64 = 0.01;
const BUDGET: u64 = 20_000_000;

/// The two DRAM backends, the second resolved through the backend
/// registry exactly like `--dram`.
fn backends() -> [(&'static str, SystemConfig); 2] {
    let kind =
        pim_coscheduling::dram::backend::parse_spec("lp5x:ranks=4").expect("registered backend");
    [
        ("hbm", SystemConfig::default()),
        ("lp5x", pim_coscheduling::dram::backend::system_config(kind)),
    ]
}

/// `cfg` with its interconnect in `vc_mode`.
fn with_vc(cfg: &SystemConfig, vc_mode: VcMode) -> SystemConfig {
    let mut cfg = cfg.clone();
    cfg.noc.vc_mode = vc_mode;
    cfg
}

/// The default runner for `cfg` and `policy`.
fn runner(cfg: &SystemConfig, policy: PolicyKind) -> Runner {
    let mut r = Runner::new(cfg.clone(), policy);
    r.max_gpu_cycles = BUDGET;
    r
}

/// The reference runner for `cfg` and `policy`.
fn reference(cfg: &SystemConfig, policy: PolicyKind) -> Runner {
    let mut r = Runner::reference(cfg.clone(), policy);
    r.max_gpu_cycles = BUDGET;
    r
}

/// The runners a test races against the reference: the default, and the
/// default with each of its two switches off on its own.
fn variants(cfg: &SystemConfig, policy: PolicyKind) -> [(&'static str, Runner); 3] {
    let mut no_ff = runner(cfg, policy);
    no_ff.fast_forward = false;
    let mut no_lag = runner(cfg, policy);
    no_lag.partition_lag = false;
    [
        ("default", runner(cfg, policy)),
        ("ff=off", no_ff),
        ("lag=off", no_lag),
    ]
}

/// One kernel's completions in arrival order: `(cycle, slot, request)`.
type Log = Vec<(Cycle, usize, RequestId)>;

/// A kernel under observation: forwards everything to the wrapped model
/// and logs every completion it receives. Two runs' logs differ as soon
/// as one reply or ack arrives on another cycle, even when no total
/// moves (a compute-bound kernel ends on its last reply, not on one from
/// mid-run).
struct Observed {
    inner: Box<dyn KernelModel>,
    log: Arc<Mutex<Log>>,
}

impl Observed {
    /// Wraps `inner`; the returned log fills as the simulation runs.
    fn wrap(inner: Box<dyn KernelModel>) -> (Box<dyn KernelModel>, Arc<Mutex<Log>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let k = Observed {
            inner,
            log: Arc::clone(&log),
        };
        (Box::new(k), log)
    }
}

impl KernelModel for Observed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_slots(&self) -> usize {
        self.inner.num_slots()
    }

    fn try_issue(&mut self, slot: usize, now: Cycle, id: RequestId) -> Option<IssuedRequest> {
        self.inner.try_issue(slot, now, id)
    }

    fn on_complete(&mut self, slot: usize, id: RequestId, now: Cycle) {
        self.log.lock().expect("log").push((now, slot, id));
        self.inner.on_complete(slot, id, now);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn total_requests(&self) -> u64 {
        self.inner.total_requests()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn next_issue_cycle(&self, slot: usize, now: Cycle) -> Option<Cycle> {
        self.inner.next_issue_cycle(slot, now)
    }
}

fn take(log: &Arc<Mutex<Log>>) -> Log {
    std::mem::take(&mut *log.lock().expect("log"))
}

/// Everything a run shows its caller.
struct Seen {
    /// Standalone: total cycles and injections. Co-execution: total
    /// cycles, the GPU and PIM kernels' first-run cycles, and whether
    /// each starved.
    totals: Vec<u64>,
    mc: McStats,
    /// Per kernel, in mount order.
    logs: Vec<Log>,
}

/// A standalone run of `kernel` on `r`.
fn solo(r: &Runner, kernel: Box<dyn KernelModel>, is_pim: bool) -> Seen {
    let (k, log) = Observed::wrap(kernel);
    let out = r.standalone(k, 0, is_pim).expect("finishes");
    Seen {
        totals: vec![out.cycles, out.icnt_injections],
        mc: out.mc,
        logs: vec![take(&log)],
    }
}

/// A competitive co-execution of `gpu` and `pim` on `r`.
fn coexec(r: &Runner, gpu: Box<dyn KernelModel>, pim: Box<dyn KernelModel>) -> Seen {
    let (pim, pim_log) = Observed::wrap(pim);
    let (gpu, gpu_log) = Observed::wrap(gpu);
    let out = r.coexec(gpu, pim, true);
    Seen {
        totals: vec![
            out.total_cycles,
            out.gpu_first_run,
            out.pim_first_run,
            u64::from(out.gpu_starved),
            u64::from(out.pim_starved),
        ],
        mc: out.mc,
        logs: vec![take(&pim_log), take(&gpu_log)],
    }
}

/// Where `got` first differs from `want`, or `None` if it matches.
fn mismatch(got: &Seen, want: &Seen) -> Option<String> {
    if got.totals != want.totals {
        return Some(format!("totals {:?} vs {:?}", got.totals, want.totals));
    }
    if got.mc != want.mc {
        return Some("merged controller stats differ".into());
    }
    got.logs
        .iter()
        .zip(&want.logs)
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .map(|(k, (g, w))| {
            let at = g.iter().zip(w).take_while(|(a, b)| a == b).count();
            format!(
                "kernel {k}'s completion log differs at entry {at}: {:?} vs {:?} ({} vs {} entries)",
                g.get(at),
                w.get(at),
                g.len(),
                w.len()
            )
        })
}

fn assert_matches(got: &Seen, want: &Seen, ctx: &str) {
    if let Some(diff) = mismatch(got, want) {
        panic!("{ctx}: {diff}");
    }
}

/// Races every variant of the default runner against the reference on
/// `cfg` and `policy`; `run` performs one run on the runner it gets.
fn assert_variants_match(
    ctx: &str,
    cfg: &SystemConfig,
    policy: PolicyKind,
    run: impl Fn(&Runner) -> Seen,
) {
    let want = run(&reference(cfg, policy));
    for (label, r) in variants(cfg, policy) {
        assert_matches(&run(&r), &want, &format!("{ctx}/{label}"));
    }
}

#[test]
fn standalone_mem_matches_across_ff_modes() {
    let base = SystemConfig::default();
    for policy in [PolicyKind::FrFcfs, PolicyKind::FrRrFcfs] {
        for vc_mode in [VcMode::Shared, VcMode::SplitPim] {
            for bench in [GpuBenchmark(3), GpuBenchmark(15)] {
                let ctx = format!("{policy:?}/{vc_mode:?}/{bench:?}");
                assert_variants_match(&ctx, &with_vc(&base, vc_mode), policy, |r| {
                    solo(r, Box::new(gpu_kernel(bench, 16, SCALE)), false)
                });
            }
        }
    }
}

/// Compute-bound MEM kernels — the workloads fast-forward exists for —
/// spend most cycles waiting on requests in flight: queued in a stalled
/// controller, moving as DRAM data, or sitting in an L2 hit pipeline,
/// while every SM paces. Fast-forward jumps those waits and the wake
/// table sleeps the pacing SMs, so every observable must match the
/// reference cycle for cycle, down to the cycle of each completion: G7,
/// G10 and G12 on 1 and 8 SMs, on both DRAM backends.
#[test]
fn compute_bound_mem_matches_eager_oracle() {
    for (backend, cfg) in backends() {
        for bench in [GpuBenchmark(7), GpuBenchmark(10), GpuBenchmark(12)] {
            for sms in [1, 8] {
                let ctx = format!("{bench}/{sms} SMs/{backend}");
                assert_variants_match(&ctx, &cfg, PolicyKind::FrFcfs, |r| {
                    solo(r, Box::new(gpu_kernel(bench, sms, SCALE)), false)
                });
            }
        }
    }
}

/// Two looping MEM kernels, G10 on SMs 0-3 and G12 on SMs 4-7: the one
/// that finishes first restarts and issues its second run while the
/// other finishes its first. A restart voids the issue bounds its SMs
/// sleep on. Fast-forward on and off must agree with the reference,
/// whose issue stage polls every SM every cycle, on cycles, first-run
/// cycles, runs, controller stats and completion logs. Keeping wakes
/// across a reset would silence the restarted kernel in both
/// fast-forward modes alike; the reference is what catches that.
#[test]
fn restarting_kernels_match_across_ff_modes() {
    let run = |mut sim: Simulator| {
        let mut logs = Vec::new();
        for (bench, first_sm) in [(GpuBenchmark(10), 0), (GpuBenchmark(12), 4)] {
            let (k, log) = Observed::wrap(Box::new(gpu_kernel(bench, 4, SCALE)));
            sim.mount(k, (first_sm..first_sm + 4).collect(), false, true);
            logs.push(log);
        }
        let cycles = sim.run_until_all_first_done(BUDGET).expect("finishes");
        let kernels: Vec<_> = sim
            .kernels()
            .iter()
            .map(|k| {
                (
                    k.first_run_cycles,
                    k.runs,
                    k.icnt_injections,
                    k.model.total_requests(),
                )
            })
            .collect();
        let logs: Vec<Log> = logs.iter().map(take).collect();
        (cycles, kernels, sim.merged_mc_stats(), logs)
    };
    let cfg = SystemConfig::default();
    let reference = run(Simulator::reference(cfg.clone(), PolicyKind::FrFcfs));
    assert!(
        reference
            .1
            .iter()
            .any(|&(_, runs, injected, total)| runs >= 1 && injected > total),
        "no kernel issued after its restart: {:?}",
        reference.1
    );
    for ff in [false, true] {
        let ctx = format!("restart/ff={ff}");
        let mut sim = Simulator::new(cfg.clone(), PolicyKind::FrFcfs);
        sim.set_fast_forward(ff);
        let got = run(sim);
        assert_eq!(got.0, reference.0, "{ctx}: total cycles");
        assert_eq!(
            got.1, reference.1,
            "{ctx}: (first-run cycles, runs, injections, total) per kernel"
        );
        assert!(got.2 == reference.2, "{ctx}: merged controller stats");
        assert!(got.3 == reference.3, "{ctx}: completion logs differ");
    }
}

#[test]
fn standalone_pim_matches_across_ff_modes() {
    let base = SystemConfig::default();
    for vc_mode in [VcMode::Shared, VcMode::SplitPim] {
        let ctx = format!("pim/{vc_mode:?}");
        assert_variants_match(&ctx, &with_vc(&base, vc_mode), PolicyKind::FrFcfs, |r| {
            solo(
                r,
                Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE)),
                true,
            )
        });
    }
}

#[test]
fn coexec_matches_across_ff_modes() {
    let base = SystemConfig::default();
    for policy in [
        PolicyKind::FrFcfs,
        PolicyKind::f3fs_competitive(),
        PolicyKind::MemFirst,
    ] {
        for vc_mode in [VcMode::Shared, VcMode::SplitPim] {
            let ctx = format!("{policy:?}/{vc_mode:?}");
            assert_variants_match(&ctx, &with_vc(&base, vc_mode), policy, |r| {
                coexec(
                    r,
                    Box::new(gpu_kernel(GpuBenchmark(8), 16, SCALE)),
                    Box::new(pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE)),
                )
            });
        }
    }
}

/// The completion path under load. Stage 5 collects PIM acks on every
/// cycle while a PIM kernel is mounted, and the reply gate runs stage 6
/// only while a reply exists; the reference runs both every cycle. Two
/// completion-heavy inputs, in both VC modes: a pure PIM burst, where
/// acks land essentially every cycle, and a reply-saturated
/// co-execution, where a wide MEM kernel keeps the reply network's
/// queues deep while the PIM co-runner floods the ack schedules.
#[test]
fn completion_delivery_matches_reference() {
    let base = SystemConfig::default();
    for vc_mode in [VcMode::Shared, VcMode::SplitPim] {
        let cfg = with_vc(&base, vc_mode);
        let ctx = format!("pim-burst/{vc_mode:?}");
        assert_variants_match(&ctx, &cfg, PolicyKind::FrFcfs, |r| {
            solo(
                r,
                Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE)),
                true,
            )
        });
        let ctx = format!("reply-sat/{vc_mode:?}");
        assert_variants_match(&ctx, &cfg, PolicyKind::f3fs_competitive(), |r| {
            coexec(
                r,
                Box::new(gpu_kernel(GpuBenchmark(15), 32, SCALE)),
                Box::new(pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE)),
            )
        });
    }
}

/// Partition lag (DESIGN.md §4k): every controller deposits each PIM
/// op's ack in its schedule at issue (a burst plan's at the plan's
/// creation), and with lag on (the default) each partition lags through
/// visits while it holds no MEM work, its acks pulled at delivery. Every
/// observable, PIM completion logs included, must match the reference on
/// both DRAM backends. The matrix runs VC1 (shared lanes maximize
/// PIM/MEM interleaving in the staging ports).
///
/// Two PIM inputs: the saturated burst (credit cap 256) and a throttled
/// one (cap 4, the `pim_sparse_lp5x` shape). Every PIM eject catches
/// its partition up through `partition_mut`, and a throttled kernel
/// interleaves those catch-ups most tightly with the pull-driven ack
/// drains: a pull skip loosened by 3 cycles passes the burst input and
/// fails this one.
#[test]
fn partition_lag_matches_reference() {
    for (backend, cfg) in backends() {
        // The throttled kernel runs at a larger scale than the burst so
        // its warps spend most of the run at their cap.
        for (shape, cap, scale) in [("pim", 256, SCALE), ("pim-cap4", 4, 0.1)] {
            let ctx = format!("{shape}/{backend}");
            assert_variants_match(&ctx, &cfg, PolicyKind::FrFcfs, |r| {
                solo(
                    r,
                    Box::new(pim_kernel(PimBenchmark(1), 32, 4, cap, scale)),
                    true,
                )
            });
        }
        // Co-execution: MEM traffic keeps its partitions live while PIM
        // ejects catch lagging ones up mid-lag.
        let ctx = format!("coexec/{backend}");
        assert_variants_match(&ctx, &cfg, PolicyKind::f3fs_competitive(), |r| {
            coexec(
                r,
                Box::new(gpu_kernel(GpuBenchmark(8), 16, SCALE)),
                Box::new(pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE)),
            )
        });
    }
}

/// One run of the reference matrix.
#[derive(Debug, Clone, Copy)]
enum Case {
    /// A Rodinia kernel alone on this many SMs.
    Mem(GpuBenchmark, usize),
    /// A PIM kernel alone at this per-warp credit cap.
    Pim(PimBenchmark, u32),
    /// A GPU kernel on 16 SMs next to a PIM kernel, under a policy.
    Coexec(GpuBenchmark, PimBenchmark, PolicyKind),
}

/// The default against the reference over a wide matrix, 248 runs: G3,
/// G7, G10, G11, G12 and G15 alone on 1, 8 and 16 SMs; P1-P4 alone at
/// credit caps 256 and 4; and G8+P2, G15+P1, G4+P1 and G11+P4 under all
/// nine policies — each on HBM and LP5X, under VC1 and VC2. Every run
/// must match on cycles, injections or first runs, merged controller
/// stats and every kernel's completion log. Too slow for a debug build;
/// the release pass of `scripts/tier1.sh` runs it.
#[test]
#[cfg_attr(debug_assertions, ignore = "about 25 s in debug; run with --release")]
fn default_matches_reference_matrix() {
    let mut cases = Vec::new();
    for bench in [3, 7, 10, 11, 12, 15] {
        for sms in [1, 8, 16] {
            cases.push(Case::Mem(GpuBenchmark(bench), sms));
        }
    }
    for bench in 1..=4 {
        for cap in [256, 4] {
            cases.push(Case::Pim(PimBenchmark(bench), cap));
        }
    }
    for (gpu, pim) in [(8, 2), (15, 1), (4, 1), (11, 4)] {
        for policy in PolicyKind::all() {
            cases.push(Case::Coexec(GpuBenchmark(gpu), PimBenchmark(pim), policy));
        }
    }
    let mut runs = Vec::new();
    for (backend, cfg) in backends() {
        for vc_mode in [VcMode::Shared, VcMode::SplitPim] {
            for &case in &cases {
                runs.push((backend, with_vc(&cfg, vc_mode), case));
            }
        }
    }
    let total = runs.len();
    assert_eq!(total, 248);
    let failures: Vec<String> = parallel_map(runs, |(backend, cfg, case)| {
        let vc = cfg.noc.vc_mode;
        let run = |r: &Runner| match case {
            Case::Mem(bench, sms) => solo(r, Box::new(gpu_kernel(bench, sms, SCALE)), false),
            Case::Pim(bench, cap) => solo(r, Box::new(pim_kernel(bench, 32, 4, cap, SCALE)), true),
            Case::Coexec(gpu, pim, _) => coexec(
                r,
                Box::new(gpu_kernel(gpu, 16, SCALE)),
                Box::new(pim_kernel(pim, 32, 4, 256, SCALE)),
            ),
        };
        let policy = match case {
            Case::Coexec(_, _, policy) => policy,
            _ => PolicyKind::FrFcfs,
        };
        mismatch(&run(&runner(&cfg, policy)), &run(&reference(&cfg, policy)))
            .map(|diff| format!("{case:?}/{backend}/{vc:?}: {diff}"))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "{} of {total} runs differ from the reference; first: {}",
        failures.len(),
        failures[0]
    );
}

/// Every partition's controller as a caller sees it between steps:
/// (MEM-Q length, PIM-Q length, mode, switches).
fn partition_states(sim: &Simulator) -> Vec<(usize, usize, Mode, u64)> {
    sim.partitions()
        .map(|p| {
            let mc = &p.mc;
            (
                mc.mem_q_len(),
                mc.pim_q_len(),
                mc.mode(),
                mc.stats().switches,
            )
        })
        .collect()
}

/// The public `Simulator::step` hands control back after every cycle,
/// and callers read partitions between steps (`examples/mode_timeline.rs`
/// and `examples/congestion_anatomy.rs` do). So each step must leave
/// every partition current: cycle by cycle, the state must match the
/// reference, in which no partition ever lags. Two inputs: P1 alone, and
/// P1 next to G11 under the three policies `mode_timeline` draws.
#[test]
fn public_step_matches_eager_oracle_every_cycle() {
    const CYCLES: u64 = 2_400;
    let inputs = [
        ("P1", PolicyKind::FrFcfs, false),
        ("P1+G11", PolicyKind::Fcfs, true),
        ("P1+G11", PolicyKind::FrFcfs, true),
        ("P1+G11", PolicyKind::f3fs_competitive(), true),
    ];
    for (name, policy, with_gpu) in inputs {
        let build = |mut sim: Simulator| {
            let pim = pim_kernel(PimBenchmark(1), 32, 4, 256, 0.3);
            sim.mount(Box::new(pim), (0..8).collect(), true, true);
            if with_gpu {
                let gpu = gpu_kernel(GpuBenchmark(11), 72, 0.3);
                sim.mount(Box::new(gpu), (8..80).collect(), false, true);
            }
            sim
        };
        let cfg = SystemConfig::default();
        let mut fast = build(Simulator::new(cfg.clone(), policy));
        let mut reference = build(Simulator::reference(cfg, policy));
        for cycle in 0..CYCLES {
            fast.step();
            reference.step();
            assert_eq!(
                partition_states(&fast),
                partition_states(&reference),
                "{name} under {}: partitions after cycle {cycle}",
                policy.label()
            );
        }
        assert!(
            fast.merged_mc_stats() == reference.merged_mc_stats(),
            "{name} under {}: merged controller stats",
            policy.label()
        );
    }
}

/// Regression pin for the standalone-MEM fast-forward collapse: a
/// compute-bound MEM kernel (G10 on 8 SMs) spends most of its time with
/// no SM due and nothing able to act — its requests either done or
/// waiting on DRAM timing — so the skip path must cover at least half of
/// the run. Because the memory stage's reply summary and active set are
/// exact, the probe must also see the same quiet spans whether or not
/// partitions may lag the memory stage. A stale summary (true for a
/// whole lag after the reply network drained the wires) blocked almost
/// every probe with lag on and none with it off. And since a partition
/// holding MEM work never lags (DESIGN.md §4k), no partition of this
/// MEM-only run lags the memory stage at all.
#[test]
fn mem_sparse_fast_forward_is_lag_independent() {
    let run = |lag: bool| {
        let mut sim = Simulator::new(SystemConfig::default(), PolicyKind::FrFcfs);
        sim.set_partition_lag(lag);
        let k = gpu_kernel(GpuBenchmark(10), 8, 0.05);
        let slots = k.num_slots();
        sim.mount(Box::new(k), (0..slots).collect(), false, false);
        let cycles = sim.run_until_all_first_done(BUDGET).expect("finishes");
        let replays = sim.merged_step_mix().replay_batches;
        ((cycles, sim.fast_forward_stats()), replays)
    };
    let (eager, _) = run(false);
    let (cycles, (_, skipped)) = eager;
    assert!(
        skipped as f64 >= 0.5 * cycles as f64,
        "fast-forward covered {skipped} of {cycles} cycles: {eager:?}"
    );
    let (lazy, replays) = run(true);
    assert_eq!(
        lazy, eager,
        "(cycles, (skips, skipped cycles)) with partition lag on"
    );
    assert_eq!(replays, 0, "a partition of a MEM-only run lagged");
}

#[test]
fn determinism_holds_through_parallel_map() {
    // The same configuration dispatched twice through the sweep machinery
    // (worker threads claim work in nondeterministic order) must produce
    // identical outcomes, on the default and on the reference alike.
    let mut cfg = SystemConfig::default();
    cfg.noc.vc_mode = VcMode::SplitPim;
    let policy = PolicyKind::f3fs_competitive();
    let jobs: Vec<bool> = vec![false, true, false, true];
    let outcomes = parallel_map(jobs, |is_reference| {
        let r = if is_reference {
            reference(&cfg, policy)
        } else {
            runner(&cfg, policy)
        };
        let out = r.coexec(
            Box::new(gpu_kernel(GpuBenchmark(5), 16, SCALE)),
            Box::new(pim_kernel(PimBenchmark(3), 32, 4, 256, SCALE)),
            true,
        );
        (out.gpu_first_run, out.pim_first_run, out.total_cycles)
    });
    assert_eq!(
        outcomes[0], outcomes[1],
        "default vs reference through sweep"
    );
    assert_eq!(outcomes[0], outcomes[2], "default repeat");
    assert_eq!(outcomes[1], outcomes[3], "reference repeat");
}
