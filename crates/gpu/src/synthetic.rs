//! Synthetic regular-GPU (MEM) kernel model.
//!
//! Each kernel is a parameterized request generator calibrated to the
//! memory-behaviour axes of the paper's Figure 4 characterization:
//! interconnect arrival rate (issue pacing), DRAM arrival rate (L2 reuse),
//! bank-level parallelism (concurrent streams), and row-buffer hit rate
//! (sequential run length).

use std::collections::VecDeque;

use pimsim_types::rng::SplitMix64;
use pimsim_types::{Cycle, PhysAddr, RequestId, RequestKind};

use crate::kernel::{IssuedRequest, KernelModel};

/// Word size all generated addresses are aligned to (the 32 B DRAM atom).
const WORD: u64 = 32;

/// Tuning knobs for a [`SyntheticGpuKernel`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpuKernelParams {
    /// Kernel name (e.g. `"bfs"`).
    pub name: String,
    /// Total memory requests per run, across all SM slots.
    pub total_requests: u64,
    /// GPU cycles between issues per SM — the compute-intensity knob.
    /// 1 saturates the SM's memory path; tens of cycles models a
    /// compute-bound kernel.
    pub issue_interval: u64,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Working-set size in bytes (partitioned across slots).
    pub footprint_bytes: u64,
    /// Probability that a stream's next access continues sequentially
    /// (+32 B). Long runs raise the row-buffer hit rate.
    pub row_locality: f64,
    /// Probability of re-touching a recently used line — raises the L2 hit
    /// rate, filtering DRAM traffic.
    pub l2_reuse: f64,
    /// Concurrent address streams per SM — the bank-level-parallelism
    /// knob.
    pub streams_per_slot: usize,
    /// RNG seed (per-slot streams derive from it deterministically).
    pub seed: u64,
}

impl GpuKernelParams {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are outside `[0, 1]` or any structural
    /// parameter is zero.
    pub fn validate(&self) {
        assert!(self.total_requests > 0, "{}: zero requests", self.name);
        assert!(
            self.issue_interval > 0,
            "{}: zero issue interval",
            self.name
        );
        assert!(
            (0.0..=1.0).contains(&self.read_fraction)
                && (0.0..=1.0).contains(&self.row_locality)
                && (0.0..=1.0).contains(&self.l2_reuse),
            "{}: probabilities must be in [0,1]",
            self.name
        );
        assert!(
            self.footprint_bytes >= WORD,
            "{}: footprint too small",
            self.name
        );
        assert!(self.streams_per_slot > 0, "{}: zero streams", self.name);
    }
}

/// Per-SM generator state.
#[derive(Debug, Clone)]
struct Slot {
    rng: SplitMix64,
    streams: Vec<u64>,
    next_stream: usize,
    history: VecDeque<u64>,
    next_ready: Cycle,
    base: u64,
    span: u64,
    remaining: u64,
}

/// A regular GPU kernel modeled as a calibrated request generator.
///
/// # Example
///
/// ```
/// use pimsim_gpu::{GpuKernelParams, KernelModel, SyntheticGpuKernel};
/// use pimsim_types::RequestId;
///
/// let params = GpuKernelParams {
///     name: "stream-like".into(),
///     total_requests: 100,
///     issue_interval: 1,
///     read_fraction: 0.7,
///     footprint_bytes: 1 << 20,
///     row_locality: 0.9,
///     l2_reuse: 0.2,
///     streams_per_slot: 4,
///     seed: 42,
/// };
/// let mut k = SyntheticGpuKernel::new(params, 8);
/// let r = k.try_issue(0, 0, RequestId(0));
/// assert!(r.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticGpuKernel {
    params: GpuKernelParams,
    slots: Vec<Slot>,
    issued: u64,
    completed: u64,
    /// Run number; folded into the per-slot RNG seeds so each re-launch of
    /// the kernel (the co-execution loop) streams fresh addresses instead
    /// of re-touching the L2-resident footprint of the previous run.
    epoch: u64,
}

impl SyntheticGpuKernel {
    /// Creates the kernel occupying `num_slots` SMs.
    ///
    /// # Panics
    ///
    /// Panics if `num_slots` is zero or the parameters fail validation.
    pub fn new(params: GpuKernelParams, num_slots: usize) -> Self {
        params.validate();
        assert!(num_slots > 0, "kernel needs at least one SM");
        let mut k = SyntheticGpuKernel {
            params,
            slots: Vec::new(),
            issued: 0,
            completed: 0,
            epoch: 0,
        };
        k.init_slots(num_slots);
        k
    }

    fn init_slots(&mut self, num_slots: usize) {
        let epoch = self.epoch;
        let p = &self.params;
        // Per-slot address partition, rounded to whole DRAM words so all
        // generated addresses stay word-aligned.
        let span = ((p.footprint_bytes / num_slots as u64) / WORD).max(4) * WORD;
        let per_slot = p.total_requests / num_slots as u64;
        let extra = p.total_requests % num_slots as u64;
        self.slots = (0..num_slots)
            .map(|s| {
                let mut rng = SplitMix64::new(
                    p.seed
                        .wrapping_add(s as u64 * 0x9e37_79b9)
                        .wrapping_add(epoch.wrapping_mul(0x517c_c1b7_2722_0a95)),
                );
                let base = s as u64 * span;
                let streams = (0..p.streams_per_slot)
                    .map(|_| base + rng.next_range(span / WORD) * WORD)
                    .collect();
                // Stagger the slots' first issues so the SMs do not inject
                // in lock-step bursts (real warps desynchronize quickly).
                let first_ready = rng.next_range(p.issue_interval.max(1));
                Slot {
                    rng,
                    streams,
                    next_stream: 0,
                    history: VecDeque::with_capacity(64),
                    next_ready: first_ready,
                    base,
                    span,
                    remaining: per_slot + u64::from((s as u64) < extra),
                }
            })
            .collect();
    }

    /// The kernel's parameters.
    pub fn params(&self) -> &GpuKernelParams {
        &self.params
    }

    /// Requests issued so far this run.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

impl KernelModel for SyntheticGpuKernel {
    fn name(&self) -> &str {
        &self.params.name
    }

    fn num_slots(&self) -> usize {
        self.slots.len()
    }

    fn try_issue(&mut self, slot: usize, now: Cycle, _id: RequestId) -> Option<IssuedRequest> {
        let p_row = self.params.row_locality;
        let p_l2 = self.params.l2_reuse;
        let p_read = self.params.read_fraction;
        let interval = self.params.issue_interval;
        let s = &mut self.slots[slot];
        if s.remaining == 0 || now < s.next_ready {
            return None;
        }
        let addr = if p_l2 > 0.0 && !s.history.is_empty() && s.rng.chance(p_l2) {
            let i = s.rng.next_range(s.history.len() as u64) as usize;
            s.history[i]
        } else {
            let idx = s.next_stream;
            s.next_stream = (s.next_stream + 1) % s.streams.len();
            let cur = s.streams[idx];
            let next = if s.rng.chance(p_row) {
                let stepped = cur + WORD;
                if stepped >= s.base + s.span {
                    s.base
                } else {
                    stepped
                }
            } else {
                s.base + s.rng.next_range(s.span / WORD) * WORD
            };
            s.streams[idx] = next;
            next
        };
        if s.history.len() == 64 {
            s.history.pop_front();
        }
        s.history.push_back(addr);
        let kind = if s.rng.chance(p_read) {
            RequestKind::MemRead
        } else {
            RequestKind::MemWrite
        };
        s.remaining -= 1;
        // Small deterministic jitter keeps the request stream from
        // re-synchronizing across SMs.
        let jitter = if interval >= 4 {
            s.rng.next_range(interval / 4)
        } else {
            0
        };
        s.next_ready = now + interval + jitter;
        self.issued += 1;
        Some(IssuedRequest {
            kind,
            addr: PhysAddr(addr),
        })
    }

    fn on_complete(&mut self, _slot: usize, _id: RequestId, _now: Cycle) {
        self.completed += 1;
        debug_assert!(
            self.completed <= self.issued,
            "more completions than issues"
        );
    }

    fn is_done(&self) -> bool {
        self.issued == self.params.total_requests && self.completed == self.issued
    }

    fn total_requests(&self) -> u64 {
        self.params.total_requests
    }

    fn reset(&mut self) {
        let n = self.slots.len();
        self.issued = 0;
        self.completed = 0;
        self.epoch += 1;
        self.init_slots(n);
    }

    fn next_issue_cycle(&self, slot: usize, now: Cycle) -> Option<Cycle> {
        // A slot with work left issues no earlier than its pacing stamp;
        // a slot that issued everything is silent until reset.
        let s = &self.slots[slot];
        (s.remaining > 0).then(|| s.next_ready.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> GpuKernelParams {
        GpuKernelParams {
            name: "test".into(),
            total_requests: 64,
            issue_interval: 2,
            read_fraction: 1.0,
            footprint_bytes: 1 << 16,
            row_locality: 1.0,
            l2_reuse: 0.0,
            streams_per_slot: 1,
            seed: 7,
        }
    }

    #[test]
    fn issues_exactly_total_requests() {
        let mut k = SyntheticGpuKernel::new(params(), 4);
        let mut n = 0u64;
        for now in 0..10_000 {
            for slot in 0..4 {
                if let Some(_r) = k.try_issue(slot, now, RequestId(n)) {
                    k.on_complete(slot, RequestId(n), now);
                    n += 1;
                }
            }
            if k.is_done() {
                break;
            }
        }
        assert_eq!(n, 64);
        assert!(k.is_done());
    }

    #[test]
    fn issue_bounds_are_lower_bounds() {
        let mut p = params();
        p.issue_interval = 9; // jittered pacing
        let total = p.total_requests;
        let mut k = SyntheticGpuKernel::new(p, 4);
        let issued = crate::kernel::tests::assert_issue_bounds_hold(&mut k, 2_000, 25);
        assert_eq!(issued, total);
        assert!(k.is_done());
        assert_eq!(k.next_issue_cycle(0, 2_000), None, "all work issued");
    }

    #[test]
    fn pacing_respects_issue_interval() {
        let mut k = SyntheticGpuKernel::new(params(), 1);
        assert!(k.try_issue(0, 0, RequestId(0)).is_some());
        assert!(k.try_issue(0, 1, RequestId(1)).is_none(), "interval 2");
        assert!(k.try_issue(0, 2, RequestId(1)).is_some());
    }

    #[test]
    fn sequential_locality_walks_words() {
        let mut k = SyntheticGpuKernel::new(params(), 1);
        let a0 = k.try_issue(0, 0, RequestId(0)).unwrap().addr.0;
        let a1 = k.try_issue(0, 2, RequestId(1)).unwrap().addr.0;
        assert_eq!(a1, a0 + WORD, "row_locality=1.0 must walk sequentially");
    }

    #[test]
    fn random_mode_stays_in_slot_partition() {
        let mut p = params();
        p.row_locality = 0.0;
        p.total_requests = 200;
        let mut k = SyntheticGpuKernel::new(p, 2);
        let span = (1u64 << 16) / 2;
        let mut issued = 0u64;
        for now in 0..1000 {
            if let Some(r) = k.try_issue(1, now, RequestId(issued)) {
                let a = r.addr.0;
                assert!(
                    a >= span && a < 2 * span,
                    "slot 1 escaped partition: {a:#x}"
                );
                issued += 1;
                if issued == 100 {
                    return;
                }
            }
        }
        panic!("only {issued}/100 requests issued");
    }

    #[test]
    fn reset_streams_fresh_addresses_deterministically() {
        // A re-launched kernel must not replay the previous run's address
        // stream (it would hit entirely in the warm L2), but two identical
        // kernels must still agree run-for-run (determinism).
        let issue_20 = |k: &mut SyntheticGpuKernel| -> Vec<u64> {
            let mut v = Vec::new();
            for i in 0..20 {
                if let Some(r) = k.try_issue(0, i * 2, RequestId(i)) {
                    v.push(r.addr.0);
                }
            }
            v
        };
        let mut a = SyntheticGpuKernel::new(params(), 2);
        let mut b = SyntheticGpuKernel::new(params(), 2);
        let run1 = issue_20(&mut a);
        assert_eq!(run1, issue_20(&mut b), "identical kernels agree");
        a.reset();
        b.reset();
        let run2 = issue_20(&mut a);
        assert_ne!(run1, run2, "a re-launch must touch fresh addresses");
        assert_eq!(run2, issue_20(&mut b), "re-launches agree across kernels");
    }

    #[test]
    fn write_fraction_produces_writes() {
        let mut p = params();
        p.read_fraction = 0.0;
        let mut k = SyntheticGpuKernel::new(p, 1);
        let r = k.try_issue(0, 0, RequestId(0)).unwrap();
        assert_eq!(r.kind, RequestKind::MemWrite);
    }

    #[test]
    #[should_panic(expected = "zero requests")]
    fn zero_requests_rejected() {
        let mut p = params();
        p.total_requests = 0;
        let _ = SyntheticGpuKernel::new(p, 1);
    }
}
