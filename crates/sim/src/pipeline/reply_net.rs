//! The reply network: the partitions→SMs crossbar. Pulls from each
//! partition's reply wire and delivers completions toward the issuing SM.

use pimsim_noc::Crossbar;
use pimsim_types::{Cycle, Request, SystemConfig, VcMode};

use super::memory::MemoryStage;

/// External state the reply network borrows for one step: the partitions
/// it pulls replies from, and the scratch vector it delivers into (the
/// completion stage retires the delivered requests afterwards).
pub struct ReplyNetCtx<'a> {
    /// The memory stage whose reply wires feed the network.
    pub memory: &'a mut MemoryStage,
    /// Requests delivered to their SM this cycle.
    pub delivered: &'a mut Vec<Request>,
}

/// The partitions→SMs reply crossbar (shared-VC: replies are one class).
#[derive(Debug)]
pub struct ReplyNet {
    xbar: Crossbar,
}

impl ReplyNet {
    /// Builds the reply crossbar from the NoC configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        ReplyNet {
            xbar: Crossbar::new(
                cfg.dram.channels,
                cfg.gpu.num_sms,
                cfg.noc.reply_queue_entries,
                VcMode::Shared,
            ),
        }
    }

    /// Whether the crossbar itself buffers any reply in flight. O(1).
    pub fn has_traffic(&self) -> bool {
        self.xbar.total_occupancy() > 0
    }

    /// The reply path's activity horizon: the earliest cycle at or after
    /// `now` at which this stage can move a completion, or `None` while
    /// provably quiet. The crossbar alone under-reports once delivery is
    /// event-driven: completions queued in a partition's reply wire but
    /// not yet injected are invisible to it. So this folds in the memory
    /// stage's reply summary, and a skip licensed by `None` here is sound
    /// even when wires hold queued-but-uninjected replies.
    pub fn horizon(&self, now: Cycle, memory: &MemoryStage) -> Option<Cycle> {
        (self.has_traffic() || memory.replies_pending()).then_some(now)
    }

    /// Advances the crossbar over a span it is known to be quiet (see
    /// [`pimsim_noc::Crossbar::skip_quiet_span`]); `true` iff the span
    /// collapsed to a no-op because nothing was buffered.
    pub fn skip_quiet_span(&mut self, first: Cycle, cycles: u64) -> bool {
        self.xbar.skip_quiet_span(first, cycles)
    }

    /// Injects as many buffered replies as each input port has credit
    /// for, then runs one arbitration cycle; ejection at an SM always
    /// succeeds (SMs sink replies without backpressure). Only active
    /// partitions can hold replies, and this is the only place replies
    /// leave the wires, so the scan writes the memory stage's reply
    /// summary back exactly.
    pub fn step(&mut self, now: Cycle, ctx: ReplyNetCtx<'_>) {
        let mut pending = false;
        for c in ctx.memory.active().iter() {
            // Shared-ref emptiness check first: channels with nothing to
            // inject skip the catch-up `partition_mut` performs.
            if ctx.memory.get(c).reply().is_empty() {
                continue;
            }
            let p = ctx.memory.partition_mut(c);
            while let Some(rep) = p.reply().peek() {
                let dest = rep.src_port as usize;
                if self.xbar.can_inject(c, false) {
                    let rep = p.reply_mut().recv().expect("peeked");
                    self.xbar
                        .try_inject(now, c, rep, dest)
                        .expect("capacity checked");
                } else {
                    break;
                }
            }
            pending |= !p.reply().is_empty();
        }
        ctx.memory.set_replies_pending(pending);
        let delivered = ctx.delivered;
        self.xbar.step(now, |_sm, _vc, req| {
            delivered.push(*req);
            true
        });
    }
}
