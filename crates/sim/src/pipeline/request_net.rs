//! The request network: the SMs→partitions crossbar, ejecting into each
//! partition's ingress port.
//!
//! The crossbar arbitrates live on every stepped cycle, and each grant
//! hands off through [`MemoryStage::partition_mut`] →
//! [`crate::partition::Partition::try_accept`]: the partition is caught
//! up on any memory visits it lagged through before the flit lands, so
//! an arrival never falls inside an unaccounted window.

use pimsim_noc::{Crossbar, CrossbarStats};
use pimsim_types::{Cycle, Request, SystemConfig};

use super::memory::MemoryStage;

/// The SMs→partitions crossbar (iSlip-arbitrated, per-VC input queues).
#[derive(Debug)]
pub struct RequestNet {
    xbar: Crossbar,
}

impl RequestNet {
    /// Builds the request crossbar from the NoC configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        RequestNet {
            xbar: Crossbar::new(
                cfg.gpu.num_sms,
                cfg.dram.channels,
                cfg.noc.input_queue_entries,
                cfg.noc.vc_mode,
            )
            .with_iterations(cfg.noc.islip_iterations),
        }
    }

    /// Whether input port `input` can accept a request of this class.
    pub fn can_inject(&self, input: usize, is_pim: bool) -> bool {
        self.xbar.can_inject(input, is_pim)
    }

    /// Injects a request whose credit the caller already checked.
    ///
    /// # Panics
    ///
    /// Panics if the input queue is full (check
    /// [`RequestNet::can_inject`] first).
    pub fn inject(&mut self, now: Cycle, input: usize, req: Request, dest: usize) {
        self.xbar
            .try_inject(now, input, req, dest)
            .expect("capacity checked");
    }

    /// Flits buffered in the crossbar's input queues.
    pub fn occupancy(&self) -> usize {
        self.xbar.total_occupancy()
    }

    /// Crossbar counters.
    pub fn stats(&self) -> CrossbarStats {
        self.xbar.stats()
    }

    /// Advances the crossbar over a span it is known to be quiet (see
    /// [`pimsim_noc::Crossbar::skip_quiet_span`]); `true` iff the span
    /// collapsed to a no-op because nothing was buffered.
    pub fn skip_quiet_span(&mut self, first: Cycle, cycles: u64) -> bool {
        self.xbar.skip_quiet_span(first, cycles)
    }

    /// One arbitration cycle; each grant ejects into its partition's
    /// ingress lane with live backpressure.
    pub fn step(&mut self, now: Cycle, memory: &mut MemoryStage) {
        self.xbar.step(now, |out, vc, req| {
            memory.partition_mut(out).try_accept(vc, *req)
        });
    }
}
