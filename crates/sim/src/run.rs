//! Budgeted run loops and end-of-run metric harvesting for
//! [`Simulator`] — the half of its interface that drives a mounted
//! workload to completion and folds per-channel stats into system totals.

use pimsim_stats::Mergeable;

use crate::partition::Partition;
use crate::pipeline::CycleBudgetExceeded;
use crate::system::Simulator;

impl Simulator {
    /// Runs until every mounted kernel has completed at least one run.
    /// Returns the GPU cycles elapsed.
    ///
    /// # Errors
    ///
    /// Returns [`CycleBudgetExceeded`] if the budget runs out first.
    pub fn run_until_all_first_done(
        &mut self,
        max_gpu_cycles: u64,
    ) -> Result<u64, CycleBudgetExceeded> {
        self.run_with_starvation_cutoff(max_gpu_cycles, None)
    }

    /// Like [`Simulator::run_until_all_first_done`], but additionally
    /// declares starvation — and stops — once some kernel has completed
    /// `cutoff_runs` full runs while another has not completed any. This
    /// keeps denial-of-service cases (MEM-First, PIM-First, G&I) from
    /// burning the entire cycle budget: a kernel that is still unfinished
    /// after the co-runner looped that many times is starved for the
    /// purposes of the fairness metrics.
    ///
    /// # Errors
    ///
    /// Returns [`CycleBudgetExceeded`] on either the budget or the
    /// starvation cutoff, with the per-kernel progress in the message.
    pub fn run_with_starvation_cutoff(
        &mut self,
        max_gpu_cycles: u64,
        cutoff_runs: Option<u64>,
    ) -> Result<u64, CycleBudgetExceeded> {
        while self.kernels.iter().any(|k| k.first_run_cycles.is_none()) {
            let starved = cutoff_runs.is_some_and(|cut| {
                self.kernels.iter().any(|k| k.runs >= cut)
                    && self.kernels.iter().any(|k| k.first_run_cycles.is_none())
            });
            if self.gpu_cycles() >= max_gpu_cycles || starved {
                let progress = self
                    .kernels
                    .iter()
                    .map(|k| {
                        format!(
                            "{}: runs={} first={:?}",
                            k.model.name(),
                            k.runs,
                            k.first_run_cycles
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                // Account every lagged visit before handing control (and
                // the stats surface) back to the caller.
                self.sync_memory();
                return Err(CycleBudgetExceeded {
                    max_gpu_cycles,
                    progress,
                });
            }
            if self.fast_forward && self.skip_idle_span(max_gpu_cycles) {
                // Re-check the budget before stepping: a skip clamped to
                // `max_gpu_cycles` must error exactly like lock-step would.
                continue;
            }
            self.advance();
        }
        self.sync_memory();
        Ok(self.gpu_cycles())
    }

    /// Folds one per-partition stats bundle across all channels — the
    /// single merge loop behind every `merged_*` accessor.
    fn merged<T: Mergeable>(&self, per: impl Fn(&Partition) -> T) -> T {
        let mut agg = T::default();
        for p in self.memory.iter() {
            agg.merge_from(&per(p));
        }
        agg
    }

    /// Merged DRAM command counters across channels (energy accounting).
    pub fn merged_channel_stats(&self) -> pimsim_dram::ChannelStats {
        self.merged(|p| p.mc.channel_stats())
    }

    /// Merged controller stats across channels.
    pub fn merged_mc_stats(&self) -> pimsim_core::McStats {
        self.merged(|p| p.mc.stats().clone())
    }

    /// Merged step mix across channels: how controller cycles were
    /// serviced — full scheduling steps, stall-memo replays, burst-plan
    /// retirement (observability; see [`pimsim_core::StepMix`]) — plus
    /// the simulator-level per-stage tick counters (controllers leave
    /// those at zero; the pipeline scheduler owns them).
    pub fn merged_step_mix(&self) -> pimsim_core::StepMix {
        let mut mix = self.merged(|p| p.mc.step_mix());
        let t = &self.stage_ticks;
        mix.ticks_issue = t.issue;
        mix.ticks_request_net = t.request_net;
        mix.ticks_memory = t.memory;
        mix.ticks_reply_net = t.reply_net;
        mix.ticks_completion = t.completion;
        mix.completions_delivered = self.completion_stage_delivered();
        let (replay_batches, replayed_visits) = self.memory.replay_counters();
        mix.replay_batches = replay_batches;
        mix.replayed_visits = replayed_visits;
        mix
    }

    /// Total DRAM energy over the run, priced with the energy
    /// coefficients of the run's DRAM backend
    /// ([`pimsim_dram::backend::energy_for`]).
    pub fn total_energy(&self) -> pimsim_dram::EnergyBreakdown {
        pimsim_dram::channel_energy(
            &pimsim_dram::backend::energy_for(&self.cfg),
            &self.merged_channel_stats(),
            self.dram_cycles() * self.memory.channel_count() as u64,
            self.cfg.dram.banks as u32,
        )
    }
}
