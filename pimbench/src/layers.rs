//! Per-layer counters of one traced simulation, and the per-layer
//! metrics derived from them. Layer names are the simulator's module
//! names: the five pipeline stages, `ff` (fast-forward), `mc`
//! (pimsim-core's controller), `batch` (ack and eject batching), `noc`,
//! `l2` and `dram`.

use pimsim_core::{McStats, StepMix};
use pimsim_sim::{Simulator, StageProfile};
use pimsim_stats::Mergeable;

/// Additive counters: a sweep's counters are the sum over its
/// simulations, and a run's the sum over its traced samples. The
/// controller and step-mix counters keep their own types; only what no
/// simulator type sums is spelled out here.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub mc: McStats,
    /// Stage ticks and batching counters as well as the controller's
    /// step mix.
    pub mix: StepMix,
    pub stage_ns: [u64; 5],
    pub stepped_cycles: u64,
    pub gpu_cycles: u64,
    pub ff_skips: u64,
    pub ff_skipped: u64,
    pub noc_ejected: u64,
    pub noc_eject_stalls: u64,
    pub noc_occupancy: u64,
    pub l2_hits: u64,
    pub l2_lookups: u64,
    pub l2_blocked: u64,
}

impl Counters {
    /// Reads every counter off a finished, profiled simulation.
    pub fn harvest(sim: &Simulator) -> Self {
        let prof = *sim
            .stage_profile()
            .expect("traced simulations run with stage profiling on");
        let noc = sim.request_noc_stats();
        let (ff_skips, ff_skipped) = sim.fast_forward_stats();
        let mut c = Counters {
            mc: sim.merged_mc_stats(),
            mix: sim.merged_step_mix(),
            stage_ns: prof.stages().map(|(_, ns)| ns),
            stepped_cycles: prof.stepped_cycles,
            gpu_cycles: sim.gpu_cycles(),
            ff_skips,
            ff_skipped,
            noc_ejected: noc.ejected,
            noc_eject_stalls: noc.eject_stalls,
            noc_occupancy: noc.occupancy_integral,
            ..Counters::default()
        };
        for p in sim.partitions() {
            let s = p.l2().stats();
            c.l2_hits += s.hits;
            c.l2_lookups += s.hits + s.misses + s.merges;
            c.l2_blocked += s.blocked;
        }
        c
    }

    pub fn add(&mut self, o: &Counters) {
        self.mc.merge(&o.mc);
        self.mix.merge_from(&o.mix);
        for (mine, theirs) in self.stage_ns.iter_mut().zip(o.stage_ns) {
            *mine += theirs;
        }
        for (mine, theirs) in [
            (&mut self.stepped_cycles, o.stepped_cycles),
            (&mut self.gpu_cycles, o.gpu_cycles),
            (&mut self.ff_skips, o.ff_skips),
            (&mut self.ff_skipped, o.ff_skipped),
            (&mut self.noc_ejected, o.noc_ejected),
            (&mut self.noc_eject_stalls, o.noc_eject_stalls),
            (&mut self.noc_occupancy, o.noc_occupancy),
            (&mut self.l2_hits, o.l2_hits),
            (&mut self.l2_lookups, o.l2_lookups),
            (&mut self.l2_blocked, o.l2_blocked),
        ] {
            *mine += theirs;
        }
    }

    /// The per-layer metrics of `samples` traced samples summed into
    /// `self`: counts are per sample, everything else a ratio of sums
    /// (0 when nothing was counted).
    pub fn metrics(&self, samples: u64) -> Vec<(String, f64, &'static str)> {
        let n = samples.max(1) as f64;
        let (mc, mix) = (&self.mc, &self.mix);
        let per_sample = |v: u64| v as f64 / n;
        let ticks = [
            mix.ticks_issue,
            mix.ticks_request_net,
            mix.ticks_memory,
            mix.ticks_reply_net,
            mix.ticks_completion,
        ];
        let mut out = Vec::new();
        let stages = StageProfile::default().stages().map(|(name, _)| name);
        for (i, stage) in stages.iter().enumerate() {
            out.push((
                format!("{stage}.ns_per_cycle"),
                ratio(self.stage_ns[i], self.stepped_cycles),
                "ns",
            ));
            out.push((format!("{stage}.ticks"), per_sample(ticks[i]), "count"));
        }
        let mut push = |name: &str, value: f64, unit: &'static str| {
            out.push((name.to_owned(), value, unit));
        };
        push("ff.skips", per_sample(self.ff_skips), "count");
        push(
            "ff.skipped_frac",
            ratio(self.ff_skipped, self.gpu_cycles),
            "ratio",
        );
        push(
            "sim.stepped_cycles",
            per_sample(self.stepped_cycles),
            "count",
        );
        push("mc.full_steps", per_sample(mix.full_steps), "count");
        push("mc.memo_replayed", per_sample(mix.memo_replayed), "count");
        push("mc.burst_retired", per_sample(mix.burst_retired), "count");
        push(
            "mc.burst_hit_rate",
            mix.burst_hit_rate().unwrap_or(0.0),
            "ratio",
        );
        push(
            "mc.memo_invalidations",
            per_sample(mix.memo_invalidations),
            "count",
        );
        push("mc.switches", per_sample(mc.switches), "count");
        push(
            "mc.drain_cycles_per_switch",
            mc.drain_latency_per_switch().unwrap_or(0.0),
            "dram_cycles",
        );
        push(
            "mc.mem_q_mean",
            ratio(mc.mem_q_occupancy_sum, mc.cycles),
            "requests",
        );
        push(
            "mc.pim_q_mean",
            ratio(mc.pim_q_occupancy_sum, mc.cycles),
            "requests",
        );
        push("batch.acks_batched", per_sample(mix.acks_batched), "count");
        push(
            "batch.requests_batched",
            per_sample(mix.requests_batched),
            "count",
        );
        push(
            "batch.mean_deferral_window",
            mix.mean_deferral_window().unwrap_or(0.0),
            "visits",
        );
        push(
            "batch.replayed_visits",
            per_sample(mix.replayed_visits),
            "count",
        );
        push(
            "noc.req.eject_stall_frac",
            ratio(
                self.noc_eject_stalls,
                self.noc_ejected + self.noc_eject_stalls,
            ),
            "ratio",
        );
        push(
            "noc.req.mean_occupancy",
            ratio(self.noc_occupancy, self.gpu_cycles),
            "flits",
        );
        push("l2.hit_rate", ratio(self.l2_hits, self.l2_lookups), "ratio");
        push("l2.mshr_blocked", per_sample(self.l2_blocked), "count");
        push(
            "dram.row_hit_rate_mem",
            mc.mem_rbhr().unwrap_or(0.0),
            "ratio",
        );
        push(
            "dram.row_hit_rate_pim",
            mc.pim_rbhr().unwrap_or(0.0),
            "ratio",
        );
        push("dram.blp", mc.avg_blp().unwrap_or(0.0), "banks");
        out
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
