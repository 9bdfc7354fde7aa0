//! Fast-forward equivalence matrix: runs with idle-span skipping enabled
//! must be bit-identical to lock-step runs — same total cycles, same
//! merged controller stats — across policies, workloads, and VC modes.
//! This is the correctness contract of the event-driven main loop: the
//! skip may only cover cycles in which a lock-step `step()` would have
//! mutated nothing but the clocks.

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

fn runner(policy: PolicyKind, vc_mode: VcMode, fast_forward: bool) -> Runner {
    runner_ev(policy, vc_mode, fast_forward, true)
}

fn runner_ev(policy: PolicyKind, vc_mode: VcMode, fast_forward: bool, events: bool) -> Runner {
    let mut cfg = SystemConfig::default();
    cfg.noc.vc_mode = vc_mode;
    let mut r = Runner::new(cfg, policy);
    r.max_gpu_cycles = BUDGET;
    r.fast_forward = fast_forward;
    r.event_delivery = events;
    r
}

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

/// Field-by-field equality of merged controller stats. `McStats` holds
/// histograms (no `PartialEq`), so the comparison goes through every
/// counter plus each histogram's count/max/mean.
fn assert_mc_identical(a: &McStats, b: &McStats, ctx: &str) {
    assert_eq!(a.mem_arrivals, b.mem_arrivals, "{ctx}: mem_arrivals");
    assert_eq!(a.pim_arrivals, b.pim_arrivals, "{ctx}: pim_arrivals");
    assert_eq!(a.mem_served, b.mem_served, "{ctx}: mem_served");
    assert_eq!(a.pim_served, b.pim_served, "{ctx}: pim_served");
    assert_eq!(a.mem_row_hits, b.mem_row_hits, "{ctx}: mem_row_hits");
    assert_eq!(a.mem_row_misses, b.mem_row_misses, "{ctx}: mem_row_misses");
    assert_eq!(a.pim_row_hits, b.pim_row_hits, "{ctx}: pim_row_hits");
    assert_eq!(a.pim_row_misses, b.pim_row_misses, "{ctx}: pim_row_misses");
    assert_eq!(a.switches, b.switches, "{ctx}: switches");
    assert_eq!(
        a.switches_mem_to_pim, b.switches_mem_to_pim,
        "{ctx}: switches_mem_to_pim"
    );
    assert_eq!(
        a.mem_drain_latency_sum, b.mem_drain_latency_sum,
        "{ctx}: mem_drain_latency_sum"
    );
    assert_eq!(
        a.switch_conflicts, b.switch_conflicts,
        "{ctx}: switch_conflicts"
    );
    assert_eq!(a.blp_sum, b.blp_sum, "{ctx}: blp_sum");
    assert_eq!(a.active_cycles, b.active_cycles, "{ctx}: active_cycles");
    assert_eq!(
        a.mem_q_occupancy_sum, b.mem_q_occupancy_sum,
        "{ctx}: mem_q_occupancy_sum"
    );
    assert_eq!(
        a.pim_q_occupancy_sum, b.pim_q_occupancy_sum,
        "{ctx}: pim_q_occupancy_sum"
    );
    assert_eq!(a.cycles, b.cycles, "{ctx}: cycles");
    assert_eq!(
        a.cycles_mem_mode, b.cycles_mem_mode,
        "{ctx}: cycles_mem_mode"
    );
    assert_eq!(
        a.cycles_pim_mode, b.cycles_pim_mode,
        "{ctx}: cycles_pim_mode"
    );
    assert_eq!(
        a.cycles_draining, b.cycles_draining,
        "{ctx}: cycles_draining"
    );
    assert_eq!(
        a.mem_latency.count(),
        b.mem_latency.count(),
        "{ctx}: mem_latency.count"
    );
    assert_eq!(
        a.mem_latency.max(),
        b.mem_latency.max(),
        "{ctx}: mem_latency.max"
    );
    assert_eq!(
        a.mem_latency.mean(),
        b.mem_latency.mean(),
        "{ctx}: mem_latency.mean"
    );
    assert_eq!(
        a.pim_latency.count(),
        b.pim_latency.count(),
        "{ctx}: pim_latency.count"
    );
    assert_eq!(
        a.pim_latency.max(),
        b.pim_latency.max(),
        "{ctx}: pim_latency.max"
    );
    assert_eq!(
        a.pim_latency.mean(),
        b.pim_latency.mean(),
        "{ctx}: pim_latency.mean"
    );
}

#[test]
fn standalone_mem_matches_across_ff_modes() {
    for policy in [PolicyKind::FrFcfs, PolicyKind::FrRrFcfs] {
        for vc_mode in [VcMode::Shared, VcMode::SplitPim] {
            for bench in [GpuBenchmark(3), GpuBenchmark(15)] {
                let ctx = format!("{policy:?}/{vc_mode:?}/{bench:?}");
                let run = |ff: bool| {
                    runner(policy, vc_mode, ff)
                        .standalone(Box::new(gpu_kernel(bench, 16, SCALE)), 0, false)
                        .expect("finishes")
                };
                let on = run(true);
                let off = run(false);
                assert_eq!(on.cycles, off.cycles, "{ctx}: total cycles");
                assert_eq!(on.icnt_injections, off.icnt_injections, "{ctx}: injections");
                assert_mc_identical(&on.mc, &off.mc, &ctx);
            }
        }
    }
}

/// A kernel under observation: forwards everything to the wrapped model
/// and logs the cycle of every completion it receives, in order. Two
/// runs' logs differ as soon as one reply or ack arrives late, even when
/// no total moves (a compute-bound kernel ends on its last reply, not on
/// one from mid-run). With `polled` set it also hides the model's issue
/// bound behind the conservative default, so the issue stage polls its
/// SMs on every cycle: the reference the wake table must match.
struct Observed {
    inner: Box<dyn KernelModel>,
    polled: bool,
    completions: Arc<Mutex<Vec<Cycle>>>,
}

impl Observed {
    /// Wraps `inner`; the returned log fills as the simulation runs.
    fn wrap(
        inner: Box<dyn KernelModel>,
        polled: bool,
    ) -> (Box<dyn KernelModel>, Arc<Mutex<Vec<Cycle>>>) {
        let completions = Arc::new(Mutex::new(Vec::new()));
        let k = Observed {
            inner,
            polled,
            completions: Arc::clone(&completions),
        };
        (Box::new(k), completions)
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
        self.completions.lock().expect("log").push(now);
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
        if self.polled {
            Some(now)
        } else {
            self.inner.next_issue_cycle(slot, now)
        }
    }

    fn wants_completions(&self, now: Cycle) -> bool {
        self.inner.wants_completions(now)
    }
}

/// Compute-bound MEM kernels — the workloads fast-forward exists for —
/// spend most cycles waiting on requests in flight: queued in a stalled
/// controller, moving as DRAM data, or sitting in an L2 hit pipeline,
/// while every SM paces. Fast-forward jumps those waits, so every
/// observable must match the eager run (fast-forward, event delivery and
/// ack batching all off) cycle for cycle, down to the cycle of each
/// completion: G7, G10 and G12 on 1 and 8 SMs, on both DRAM backends,
/// with event delivery and ack batching each on or off under
/// fast-forward.
#[test]
fn compute_bound_mem_matches_eager_oracle() {
    for (backend, cfg) in backends() {
        for bench in [GpuBenchmark(7), GpuBenchmark(10), GpuBenchmark(12)] {
            for sms in [1, 8] {
                let run = |ff: bool, events: bool, batching: bool| {
                    let mut r = Runner::new(cfg.clone(), PolicyKind::FrFcfs);
                    r.max_gpu_cycles = BUDGET;
                    r.fast_forward = ff;
                    r.event_delivery = events;
                    r.ack_batching = batching;
                    let (k, log) = Observed::wrap(Box::new(gpu_kernel(bench, sms, SCALE)), false);
                    let out = r.standalone(k, 0, false).expect("finishes");
                    let log = log.lock().expect("log").clone();
                    (out, log)
                };
                let (eager, eager_log) = run(false, false, false);
                for (events, batching) in [(true, true), (false, true), (true, false)] {
                    let ctx =
                        format!("{bench}/{sms} SMs/{backend}/events={events}/batching={batching}");
                    let (got, log) = run(true, events, batching);
                    assert_eq!(got.cycles, eager.cycles, "{ctx}: total cycles");
                    assert_eq!(
                        got.icnt_injections, eager.icnt_injections,
                        "{ctx}: injections"
                    );
                    assert_mc_identical(&got.mc, &eager.mc, &ctx);
                    assert!(log == eager_log, "{ctx}: completion cycles differ");
                }
            }
        }
    }
}

/// Two looping MEM kernels, G10 on SMs 0-3 and G12 on SMs 4-7: the one
/// that finishes first restarts and issues its second run while the
/// other finishes its first. A restart voids the issue bounds its SMs
/// sleep on. Fast-forward on and off must agree on cycles, first-run
/// cycles, runs, controller stats and completion cycles, and so must a
/// reference whose kernels are polled every cycle. Keeping wakes across
/// a reset would silence the restarted kernel in both fast-forward modes
/// alike; the reference is what catches that.
#[test]
fn restarting_kernels_match_across_ff_modes() {
    let run = |ff: bool, polled: bool| {
        let mut sim = Simulator::new(SystemConfig::default(), PolicyKind::FrFcfs);
        sim.set_fast_forward(ff);
        let mut logs = Vec::new();
        for (bench, first_sm) in [(GpuBenchmark(10), 0), (GpuBenchmark(12), 4)] {
            let (k, log) = Observed::wrap(Box::new(gpu_kernel(bench, 4, SCALE)), polled);
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
        let logs: Vec<Vec<Cycle>> = logs
            .iter()
            .map(|l| l.lock().expect("log").clone())
            .collect();
        (cycles, kernels, sim.merged_mc_stats(), logs)
    };
    let reference = run(false, true);
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
        let got = run(ff, false);
        assert_eq!(got.0, reference.0, "{ctx}: total cycles");
        assert_eq!(
            got.1, reference.1,
            "{ctx}: (first-run cycles, runs, injections, total) per kernel"
        );
        assert_mc_identical(&got.2, &reference.2, &ctx);
        assert!(got.3 == reference.3, "{ctx}: completion cycles differ");
    }
}

#[test]
fn standalone_pim_matches_across_ff_modes() {
    for vc_mode in [VcMode::Shared, VcMode::SplitPim] {
        let ctx = format!("pim/{vc_mode:?}");
        let run = |ff: bool| {
            runner(PolicyKind::FrFcfs, vc_mode, ff)
                .standalone(
                    Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE)),
                    0,
                    true,
                )
                .expect("finishes")
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.cycles, off.cycles, "{ctx}: total cycles");
        assert_eq!(on.icnt_injections, off.icnt_injections, "{ctx}: injections");
        assert_mc_identical(&on.mc, &off.mc, &ctx);
    }
}

#[test]
fn coexec_matches_across_ff_modes() {
    for policy in [
        PolicyKind::FrFcfs,
        PolicyKind::f3fs_competitive(),
        PolicyKind::MemFirst,
    ] {
        for vc_mode in [VcMode::Shared, VcMode::SplitPim] {
            let ctx = format!("{policy:?}/{vc_mode:?}");
            let run = |ff: bool| {
                runner(policy, vc_mode, ff).coexec(
                    Box::new(gpu_kernel(GpuBenchmark(8), 16, SCALE)),
                    Box::new(pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE)),
                    true,
                )
            };
            let on = run(true);
            let off = run(false);
            assert_eq!(on.gpu_first_run, off.gpu_first_run, "{ctx}: gpu first run");
            assert_eq!(on.pim_first_run, off.pim_first_run, "{ctx}: pim first run");
            assert_eq!(on.gpu_starved, off.gpu_starved, "{ctx}: gpu starved");
            assert_eq!(on.pim_starved, off.pim_starved, "{ctx}: pim starved");
            assert_eq!(on.total_cycles, off.total_cycles, "{ctx}: total cycles");
            assert_mc_identical(&on.mc, &off.mc, &ctx);
        }
    }
}

/// Oracle property for the event-driven completion spine: with deferred,
/// observability-gated delivery (`event_delivery = true`, the default)
/// every observable of a run — total cycles, injections, merged
/// controller stats — must be bit-identical to the eager per-tick reply
/// path (`event_delivery = false`), and that must hold in both
/// fast-forward modes. The matrix is deliberately completion-heavy: a
/// pure PIM burst (every retirement is an out-of-band ack, the path the
/// delivery gate defers) and a reply-saturated co-execution (deep reply
/// queues keep the reply crossbar occupied, exercising the stage-6 skip
/// gate's `replies_pending`/`has_traffic` horizon).
#[test]
fn event_delivery_matches_eager_oracle() {
    for vc_mode in [VcMode::Shared, VcMode::SplitPim] {
        // PIM burst: acks land essentially every cycle; deferral batches
        // them at throttle-wake and tail boundaries.
        let pim = |ff: bool, events: bool| {
            runner_ev(PolicyKind::FrFcfs, vc_mode, ff, events)
                .standalone(
                    Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE)),
                    0,
                    true,
                )
                .expect("finishes")
        };
        let eager = pim(false, false);
        for (ff, events) in [(false, true), (true, true), (true, false)] {
            let ctx = format!("pim-burst/{vc_mode:?}/ff={ff}/events={events}");
            let got = pim(ff, events);
            assert_eq!(got.cycles, eager.cycles, "{ctx}: total cycles");
            assert_eq!(
                got.icnt_injections, eager.icnt_injections,
                "{ctx}: injections"
            );
            assert_mc_identical(&got.mc, &eager.mc, &ctx);
        }

        // Reply saturation: a wide MEM kernel keeps the reply network's
        // queues deep while the PIM co-runner floods the ack wires.
        let co = |ff: bool, events: bool| {
            runner_ev(PolicyKind::f3fs_competitive(), vc_mode, ff, events).coexec(
                Box::new(gpu_kernel(GpuBenchmark(15), 32, SCALE)),
                Box::new(pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE)),
                true,
            )
        };
        let eager = co(false, false);
        for (ff, events) in [(false, true), (true, true), (true, false)] {
            let ctx = format!("reply-sat/{vc_mode:?}/ff={ff}/events={events}");
            let got = co(ff, events);
            assert_eq!(got.gpu_first_run, eager.gpu_first_run, "{ctx}: gpu first");
            assert_eq!(got.pim_first_run, eager.pim_first_run, "{ctx}: pim first");
            assert_eq!(got.total_cycles, eager.total_cycles, "{ctx}: total cycles");
            assert_mc_identical(&got.mc, &eager.mc, &ctx);
        }
    }
}

/// Oracle property for retire-time completion batching (DESIGN.md §4k):
/// with batching on (the default) controllers emit each burst plan's
/// acks as one retire-time batch, partitions re-sort them into
/// time-ordered delivery schedules, and each partition lags through
/// visits while it holds no MEM work; with batching off every
/// completion goes through the per-tick heap and no partition ever lags
/// (the eager oracle). Every observable — total cycles,
/// injections, merged controller stats — must be bit-identical across
/// the two modes, on both DRAM backends, in both fast-forward modes.
/// The matrix runs VC1 (shared lanes maximize PIM/MEM interleaving in
/// the staging ports, the pipeline-tolerant deferral's hard case).
///
/// Two PIM inputs: the saturated burst (credit cap 256) and a throttled
/// one (cap 4, the `pim_sparse_lp5x` shape). Every PIM eject catches
/// its partition up through `partition_mut`, and a throttled kernel
/// interleaves those catch-ups most tightly with the pull-driven ack
/// drains that run whenever a warp sits at its cap: a pull skip
/// loosened by 3 cycles passes the burst input and fails this one.
#[test]
fn ack_batching_matches_per_tick_oracle() {
    for (backend, cfg) in backends() {
        // The throttled kernel runs at a larger scale than the burst so
        // its warps spend most of the run at their cap.
        for (shape, cap, scale) in [("pim", 256, SCALE), ("pim-cap4", 4, 0.1)] {
            let pim = |ff: bool, batching: bool| {
                let mut r = Runner::new(cfg.clone(), PolicyKind::FrFcfs);
                r.max_gpu_cycles = BUDGET;
                r.fast_forward = ff;
                r.ack_batching = batching;
                r.standalone(
                    Box::new(pim_kernel(PimBenchmark(1), 32, 4, cap, scale)),
                    0,
                    true,
                )
                .expect("finishes")
            };
            let eager = pim(false, false);
            for (ff, batching) in [(false, true), (true, true), (true, false)] {
                let ctx = format!("{shape}/{backend}/ff={ff}/batching={batching}");
                let got = pim(ff, batching);
                assert_eq!(got.cycles, eager.cycles, "{ctx}: total cycles");
                assert_eq!(
                    got.icnt_injections, eager.icnt_injections,
                    "{ctx}: injections"
                );
                assert_mc_identical(&got.mc, &eager.mc, &ctx);
            }
        }

        // Co-execution: MEM traffic voids deferral on its partitions and
        // ejects trigger mid-window catch-up on the PIM side — the
        // batched path's replay machinery under maximum churn.
        let co = |ff: bool, batching: bool| {
            let mut r = Runner::new(cfg.clone(), PolicyKind::f3fs_competitive());
            r.max_gpu_cycles = BUDGET;
            r.fast_forward = ff;
            r.ack_batching = batching;
            r.coexec(
                Box::new(gpu_kernel(GpuBenchmark(8), 16, SCALE)),
                Box::new(pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE)),
                true,
            )
        };
        let eager = co(false, false);
        for (ff, batching) in [(false, true), (true, true), (true, false)] {
            let ctx = format!("coexec/{backend}/ff={ff}/batching={batching}");
            let got = co(ff, batching);
            assert_eq!(got.gpu_first_run, eager.gpu_first_run, "{ctx}: gpu first");
            assert_eq!(got.pim_first_run, eager.pim_first_run, "{ctx}: pim first");
            assert_eq!(got.total_cycles, eager.total_cycles, "{ctx}: total cycles");
            assert_mc_identical(&got.mc, &eager.mc, &ctx);
        }
    }
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
/// eager run with ack batching off, in which no partition ever lags.
/// Two inputs: P1 alone, and P1 next to G11 under the three policies
/// `mode_timeline` draws.
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
        let build = |batching: bool| {
            let mut sim = Simulator::new(SystemConfig::default(), policy);
            sim.set_ack_batching(batching);
            let pim = pim_kernel(PimBenchmark(1), 32, 4, 256, 0.3);
            sim.mount(Box::new(pim), (0..8).collect(), true, true);
            if with_gpu {
                let gpu = gpu_kernel(GpuBenchmark(11), 72, 0.3);
                sim.mount(Box::new(gpu), (8..80).collect(), false, true);
            }
            sim
        };
        let (mut lazy, mut eager) = (build(true), build(false));
        for cycle in 0..CYCLES {
            lazy.step();
            eager.step();
            assert_eq!(
                partition_states(&lazy),
                partition_states(&eager),
                "{name} under {}: partitions after cycle {cycle}",
                policy.label()
            );
        }
        let ctx = format!("{name} under {}", policy.label());
        assert_mc_identical(&lazy.merged_mc_stats(), &eager.merged_mc_stats(), &ctx);
    }
}

/// Regression pin for the standalone-MEM fast-forward collapse: a
/// compute-bound MEM kernel (G10 on 8 SMs) spends most of its time with
/// no SM due and nothing able to act — its requests either done or
/// waiting on DRAM timing — so the skip path must cover at least half of
/// the run. Because the memory stage's reply summary and active set are
/// exact, the probe must also see the same quiet spans whether or not
/// ack batching defers memory visits. A stale summary (true for a whole
/// deferral window after the reply network drained the wires) blocked
/// almost every probe with batching on and none with it off. And since a
/// partition holding MEM work never lags (DESIGN.md §4k), no partition of
/// this MEM-only run lags the memory stage at all.
#[test]
fn mem_sparse_fast_forward_is_batching_independent() {
    let run = |acks: bool| {
        let mut sim = Simulator::new(SystemConfig::default(), PolicyKind::FrFcfs);
        sim.set_ack_batching(acks);
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
        "(cycles, (skips, skipped cycles)) with ack batching on"
    );
    assert_eq!(replays, 0, "a partition of a MEM-only run lagged");
}

#[test]
fn determinism_holds_through_parallel_map() {
    // The same configuration dispatched twice through the sweep machinery
    // (worker threads claim work in nondeterministic order) must produce
    // identical outcomes, fast-forward on or off.
    let jobs: Vec<bool> = vec![true, false, true, false];
    let outcomes = parallel_map(jobs, |ff| {
        let out = runner(PolicyKind::f3fs_competitive(), VcMode::SplitPim, ff).coexec(
            Box::new(gpu_kernel(GpuBenchmark(5), 16, SCALE)),
            Box::new(pim_kernel(PimBenchmark(3), 32, 4, 256, SCALE)),
            true,
        );
        (out.gpu_first_run, out.pim_first_run, out.total_cycles)
    });
    assert_eq!(outcomes[0], outcomes[1], "ff-on vs ff-off through sweep");
    assert_eq!(outcomes[0], outcomes[2], "ff-on repeat");
    assert_eq!(outcomes[1], outcomes[3], "ff-off repeat");
}
