//! One simulation, driven only through the simulator's public API:
//! build it (`Simulator::new` + `mount`), run it, and harvest what the
//! benchmark checks and reports.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pimsim_core::{McStats, PolicyKind};
use pimsim_gpu::{KernelModel, SyntheticGpuKernel};
use pimsim_sim::Simulator;
use pimsim_types::SystemConfig;
use pimsim_workloads::{pim_kernel, pim_suite::PimBenchmark, rodinia};

use crate::layers::Counters;

/// A kernel to mount, described by its catalogue entry so the spec stays
/// plain data that can cross into the sweep's worker threads.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// Rodinia benchmark `G<bench>` on `sms` SMs.
    Gpu { bench: u8, sms: usize, scale: f64 },
    /// PIM benchmark `P<bench>`, one warp per channel, at most `cap`
    /// outstanding ops per warp.
    Pim { bench: u8, cap: u32, scale: f64 },
}

impl Kernel {
    /// Builds the kernel model. `seed` is mixed into every GPU kernel's
    /// RNG seed; seed 0 leaves the catalogue's own seed unchanged. PIM
    /// kernels have no randomness, so they ignore it.
    fn build(self, cfg: &SystemConfig, seed: u64) -> (Box<dyn KernelModel>, bool) {
        match self {
            Kernel::Gpu { bench, sms, scale } => {
                let mut params = rodinia::gpu_kernel_params(rodinia::GpuBenchmark(bench), scale);
                params.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (Box::new(SyntheticGpuKernel::new(params, sms)), false)
            }
            Kernel::Pim { bench, cap, scale } => {
                let k = pim_kernel(
                    PimBenchmark(bench),
                    cfg.dram.channels,
                    cfg.gpu.pim_warps_per_sm,
                    cap,
                    scale,
                );
                (Box::new(k), true)
            }
        }
    }
}

/// One simulation: a system, a policy, and the kernels mounted on
/// consecutive SMs from `first_sm`.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub cfg: SystemConfig,
    pub policy: PolicyKind,
    pub kernels: Vec<Kernel>,
    /// Re-launch kernels until every one has finished once (co-execution).
    pub restart: bool,
    pub budget: u64,
    /// Starvation cutoff for co-execution; reaching it is a legitimate
    /// outcome there, as in `Runner::coexec`. Reaching `budget` is not.
    pub cutoff: Option<u64>,
    pub first_sm: usize,
    pub memory_threads: usize,
}

/// What one simulation produced.
#[derive(Debug)]
pub struct SimRecord {
    pub gpu_cycles: u64,
    pub fingerprint: u64,
    /// Empty when the simulation passed its checks.
    pub error: String,
    pub t_start: Instant,
    pub t_new: Instant,
    pub t_setup: Instant,
    pub t_run: Instant,
    pub t_end: Instant,
    /// Per-layer counters; only harvested on traced runs.
    pub counters: Option<Counters>,
}

impl SimRecord {
    pub fn ok(&self) -> bool {
        self.error.is_empty()
    }

    pub fn setup_ns(&self) -> u64 {
        ns(self.t_start, self.t_setup)
    }

    pub fn run_ns(&self) -> u64 {
        ns(self.t_setup, self.t_run)
    }
}

pub fn ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `spec`, turning a panic into a failed record.
pub fn run(spec: &SimSpec, seed: u64, traced: bool) -> SimRecord {
    let t_start = Instant::now();
    catch_unwind(AssertUnwindSafe(|| run_unguarded(spec, seed, traced))).unwrap_or_else(|p| {
        let now = Instant::now();
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        SimRecord {
            gpu_cycles: 0,
            fingerprint: 0,
            error: format!("panicked: {msg}"),
            t_start,
            t_new: now,
            t_setup: now,
            t_run: now,
            t_end: now,
            counters: None,
        }
    })
}

fn run_unguarded(spec: &SimSpec, seed: u64, traced: bool) -> SimRecord {
    let t_start = Instant::now();
    let mut sim = Simulator::new(spec.cfg.clone(), spec.policy);
    sim.set_memory_threads(spec.memory_threads);
    let t_new = Instant::now();
    let mut pim_ops = 0;
    let mut sm = spec.first_sm;
    for k in &spec.kernels {
        let (model, is_pim) = k.build(&spec.cfg, seed);
        let slots = model.num_slots();
        if is_pim {
            pim_ops += model.total_requests();
        }
        sim.mount(model, (sm..sm + slots).collect(), is_pim, spec.restart);
        sm += slots;
    }
    let t_setup = Instant::now();

    sim.set_stage_profiling(traced);
    let outcome = sim.run_with_starvation_cutoff(spec.budget, spec.cutoff);
    let t_run = Instant::now();

    let mc = sim.merged_mc_stats();
    let firsts: Vec<Option<u64>> = sim.kernels().iter().map(|k| k.first_run_cycles).collect();
    // A co-execution may end with a kernel starved by the cutoff, as in
    // `Runner::coexec`; running out of budget is a failure everywhere.
    let starved = spec
        .cutoff
        .is_some_and(|cut| sim.kernels().iter().any(|k| k.runs >= cut));
    let checked = match outcome {
        Err(e) if !(spec.restart && starved) => Err(format!("{e}")),
        _ => conservation(&Flow::of(&sim), (!spec.restart).then_some(pim_ops)),
    };
    let counters = traced.then(|| Counters::harvest(&sim));
    SimRecord {
        gpu_cycles: sim.gpu_cycles(),
        fingerprint: fingerprint(sim.gpu_cycles(), &firsts, &mc),
        error: checked.err().unwrap_or_default(),
        t_start,
        t_new,
        t_setup,
        t_run,
        t_end: Instant::now(),
        counters,
    }
}

/// Where the memory-side requests of a finished simulation are, summed
/// over its partitions.
#[derive(Debug, Clone, Copy, Default)]
struct Flow {
    /// L2 lookups that allocated an MSHR.
    l2_misses: u64,
    fills_sent: u64,
    writebacks_sent: u64,
    /// Requests still in the L2→DRAM ports' MEM lane (lane 0, which
    /// under VC1 carries PIM requests too).
    mem_lane: u64,
    mem_arrivals: u64,
    mem_served: u64,
    /// Still queued at the controllers.
    mem_queued: u64,
    pim_arrivals: u64,
    pim_served: u64,
    /// Still queued at the controllers, a burst plan's unissued ops
    /// included.
    pim_queued: u64,
}

impl Flow {
    fn of(sim: &Simulator) -> Flow {
        let mut f = Flow::default();
        for p in sim.partitions() {
            let (part, mc) = (p.stats(), p.mc.stats());
            f.l2_misses += p.l2().stats().misses;
            f.fills_sent += part.fills_sent;
            f.writebacks_sent += part.writebacks_sent;
            f.mem_lane += p.l2dram_q_len(0) as u64;
            f.mem_arrivals += mc.mem_arrivals;
            f.mem_served += mc.mem_served;
            f.mem_queued += p.mc.mem_q_len() as u64;
            f.pim_arrivals += mc.pim_arrivals;
            f.pim_served += mc.pim_served;
            f.pim_queued += p.mc.pim_q_len() as u64;
        }
        f
    }
}

/// No request was lost or made up between the L2s and DRAM: every L2
/// miss sent one fill; every fill and writeback reached a controller or
/// still waits in its port; every request a controller took was served
/// or is still queued there. `pim_ops` is the PIM kernels' op count when
/// each kernel ran once, so every op must have been served.
fn conservation(f: &Flow, pim_ops: Option<u64>) -> Result<(), String> {
    let sent = f.fills_sent + f.writebacks_sent;
    let broken = if f.fills_sent != f.l2_misses {
        "a fill per L2 miss"
    } else if sent < f.mem_arrivals || sent > f.mem_arrivals + f.mem_lane {
        "L2 fills and writebacks = MEM arrivals + MEM waiting in the L2→DRAM ports"
    } else if f.mem_arrivals != f.mem_served + f.mem_queued {
        "MEM arrivals = served + queued"
    } else if f.pim_arrivals != f.pim_served + f.pim_queued {
        "PIM arrivals = served + queued"
    } else if pim_ops.is_some_and(|ops| f.pim_arrivals != ops || f.pim_queued != 0) {
        "every PIM op served"
    } else {
        return Ok(());
    };
    Err(format!(
        "requests not conserved ({broken}): {f:?}, PIM ops {pim_ops:?}"
    ))
}

/// FNV-1a, the fingerprint's hash.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// GPU cycles, each kernel's first-run cycles, and a fixed, named list of
/// `McStats` counters. The list is spelled out rather than taken from
/// `Debug`, so a counter added later does not change the fingerprint.
fn fingerprint(gpu_cycles: u64, firsts: &[Option<u64>], mc: &McStats) -> u64 {
    let mut words = vec![gpu_cycles];
    words.extend(firsts.iter().map(|f| f.unwrap_or(u64::MAX)));
    words.extend([
        mc.mem_arrivals,
        mc.pim_arrivals,
        mc.mem_served,
        mc.pim_served,
        mc.mem_row_hits,
        mc.mem_row_misses,
        mc.pim_row_hits,
        mc.pim_row_misses,
        mc.switches,
        mc.switches_mem_to_pim,
        mc.mem_drain_latency_sum,
        mc.switch_conflicts,
        mc.blp_sum,
        mc.active_cycles,
        mc.mem_q_occupancy_sum,
        mc.pim_q_occupancy_sum,
        mc.cycles,
        mc.cycles_mem_mode,
        mc.cycles_pim_mode,
        mc.cycles_draining,
    ]);
    fnv1a(words)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every request accounted for: 10 misses sent 10 fills and 3
    /// writebacks, 12 reached the controllers and one waits in a port;
    /// 9 MEM requests served and 3 queued; all 40 PIM ops served.
    fn consistent() -> Flow {
        Flow {
            l2_misses: 10,
            fills_sent: 10,
            writebacks_sent: 3,
            mem_lane: 1,
            mem_arrivals: 12,
            mem_served: 9,
            mem_queued: 3,
            pim_arrivals: 40,
            pim_served: 40,
            pim_queued: 0,
        }
    }

    #[test]
    fn conservation_flags_every_lost_or_extra_request() {
        assert_eq!(conservation(&consistent(), Some(40)), Ok(()));
        /// A way to break the flow, and the rule that must catch it.
        type Case = (fn(&mut Flow), &'static str);
        let cases: [Case; 6] = [
            (|f| f.l2_misses += 1, "a fill per L2 miss"),
            (|f| f.mem_lane = 0, "MEM waiting in the L2→DRAM ports"),
            (|f| f.mem_arrivals += 2, "MEM waiting in the L2→DRAM ports"),
            (|f| f.mem_queued -= 1, "MEM arrivals = served + queued"),
            (|f| f.pim_served -= 1, "PIM arrivals = served + queued"),
            (
                |f| (f.pim_served, f.pim_queued) = (39, 1),
                "every PIM op served",
            ),
        ];
        for (break_flow, rule) in cases {
            let mut f = consistent();
            break_flow(&mut f);
            let err = conservation(&f, Some(40)).expect_err(rule);
            assert!(err.contains(rule), "{err} does not name '{rule}'");
        }
        // A looping co-execution ends with ops in flight and has issued
        // more than one run's worth: only the flow laws apply.
        let mut looping = consistent();
        (looping.pim_arrivals, looping.pim_queued) = (90, 50);
        assert_eq!(conservation(&looping, None), Ok(()));
        assert!(conservation(&looping, Some(40)).is_err());
    }

    #[test]
    fn a_budget_overrun_fails_where_a_starvation_cutoff_does_not() {
        let coexec = |policy, budget| SimSpec {
            cfg: SystemConfig::default(),
            policy,
            kernels: vec![
                Kernel::Pim {
                    bench: 1,
                    cap: 8,
                    scale: 0.01,
                },
                Kernel::Gpu {
                    bench: 4,
                    sms: 72,
                    scale: 0.01,
                },
            ],
            restart: true,
            budget,
            cutoff: Some(25),
            first_sm: 0,
            memory_threads: 1,
        };
        // PIM-first starves the GPU kernel: without the cutoff the run
        // only ends at the budget, with it the run passes.
        let mut endless = coexec(PolicyKind::PimFirst, 100_000);
        endless.cutoff = None;
        assert!(!run(&endless, 0, false).ok());
        let starved = run(&coexec(PolicyKind::PimFirst, 100_000), 0, false);
        assert!(starved.ok(), "{}", starved.error);
        assert!(starved.gpu_cycles < 100_000);
        let overrun = run(&coexec(PolicyKind::FrFcfs, 50), 0, false);
        assert!(
            overrun.error.contains("exceeded 50 GPU cycles"),
            "{}",
            overrun.error
        );
    }
}
