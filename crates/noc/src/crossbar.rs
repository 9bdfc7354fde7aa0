//! Input-queued crossbar with virtual channels and iSlip-style arbitration.
//!
//! The paper's GPU connects SMs to memory partitions through a crossbar
//! (GPGPU-Sim's interconnect). We model an input-queued crossbar:
//!
//! * each input port has one FIFO per virtual channel (one VC in the
//!   baseline `VC1` configuration, separate MEM and PIM VCs in `VC2`);
//! * each output port grants at most one flit per cycle, selected by a
//!   rotating-priority (iSlip-style) arbiter over requesting inputs;
//! * per the paper's modification of iSlip (Section V-A), each input link
//!   records the VC it last served and switches to the other VC when that
//!   VC has traffic, giving MEM and PIM round-robin service on every link;
//! * ejection is subject to downstream backpressure: a grant only succeeds
//!   if the destination queue (per-VC under `VC2`) accepts the flit.
//!
//! A request occupies a single flit. Buffer capacity is expressed in flits
//! per input port, split evenly across VCs (Section V-A keeps *total*
//! buffering equal between VC1 and VC2).

use std::collections::VecDeque;

use pimsim_types::{Cycle, Request, VcMode};

/// Virtual-channel index within a port.
pub type VcIndex = usize;

/// A queued flit: a request plus its destination output port.
#[derive(Debug, Clone, Copy)]
struct Flit {
    req: Request,
    dest: usize,
}

/// Per-input-port state.
#[derive(Debug, Clone)]
struct InputPort {
    vcs: Vec<VecDeque<Flit>>,
    capacity_per_vc: usize,
    /// VC served most recently on this link (for the modified iSlip VC
    /// round-robin).
    last_vc: VcIndex,
}

impl InputPort {
    fn occupancy(&self) -> usize {
        self.vcs.iter().map(VecDeque::len).sum()
    }
}

/// Aggregate crossbar counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossbarStats {
    /// Flits accepted into input buffers.
    pub injected: u64,
    /// Injections refused because the target VC buffer was full.
    pub inject_stalls: u64,
    /// Flits delivered to their output.
    pub ejected: u64,
    /// Grants refused by downstream backpressure.
    pub eject_stalls: u64,
    /// Sum over cycles of total buffered flits (divide by cycles for mean
    /// occupancy).
    pub occupancy_integral: u64,
}

/// An input-queued crossbar switch.
///
/// # Example
///
/// ```
/// use pimsim_noc::Crossbar;
/// use pimsim_types::{Request, RequestId, RequestKind, AppId, PhysAddr, VcMode};
///
/// let mut xbar = Crossbar::new(2, 2, 8, VcMode::Shared);
/// let req = Request::new(RequestId(0), AppId::GPU, RequestKind::MemRead, PhysAddr(0), 0, 0);
/// xbar.try_inject(0, 0, req, 1).unwrap();
/// let mut out = Vec::new();
/// xbar.step(0, |port, _vc, req| {
///     out.push((port, req.id));
///     true
/// });
/// assert_eq!(out.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    inputs: Vec<InputPort>,
    n_out: usize,
    /// Per-output rotating grant pointer over inputs.
    grant_ptr: Vec<usize>,
    vc_mode: VcMode,
    /// iSlip request-grant iterations per cycle. With one iteration an
    /// input that loses arbitration idles the cycle; further iterations
    /// let it propose its other VC's head toward a still-free output.
    iterations: usize,
    stats: CrossbarStats,
    /// Running count of buffered flits across all inputs, maintained on
    /// inject/eject so the per-cycle empty check is O(1).
    occupancy: usize,
    /// Bit `i` set iff input `i` buffers at least one flit, as 64-bit
    /// words. The proposal gather walks set bits instead of scanning
    /// every input port.
    busy_in: Vec<u64>,
    /// Words per input-set bitmask (`busy_in.len()`, and the stride of
    /// each output's stripe in the request scratch).
    in_words: usize,
    /// Arbitration scratch, reused across [`Crossbar::step`] calls so the
    /// per-cycle hot path allocates nothing.
    scratch: StepScratch,
}

/// Reusable per-step arbitration state (see [`Crossbar::step`]).
#[derive(Debug, Clone, Default)]
struct StepScratch {
    input_done: Vec<bool>,
    output_done: Vec<bool>,
    proposal: Vec<Option<VcIndex>>,
    /// Per-output requester set: output `o` owns the word stripe
    /// `[o * in_words, (o + 1) * in_words)`, bit `i` = input `i` proposed
    /// its head flit to `o` this iteration.
    request_words: Vec<u64>,
}

/// First set bit of `stripe` at or after `start`, wrapping below `start`
/// if none — the rotating-priority search order of an iSlip grant
/// pointer, word-at-a-time.
fn first_set_from(stripe: &[u64], start: usize) -> Option<usize> {
    let words = stripe.len();
    let (sw, sb) = (start / 64, start % 64);
    if sw < words {
        let masked = stripe[sw] & (!0u64 << sb);
        if masked != 0 {
            return Some(sw * 64 + masked.trailing_zeros() as usize);
        }
        for (w, &bits) in stripe.iter().enumerate().skip(sw + 1) {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
    }
    // Wrap: bits strictly below `start`.
    for (w, &bits) in stripe.iter().enumerate().take(sw.min(words)) {
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
    }
    if sw < words && sb > 0 {
        let masked = stripe[sw] & !(!0u64 << sb);
        if masked != 0 {
            return Some(sw * 64 + masked.trailing_zeros() as usize);
        }
    }
    None
}

impl Crossbar {
    /// Creates a crossbar with `n_in` input ports, `n_out` output ports,
    /// and `buffer_entries` total flit slots per input port (split evenly
    /// across VCs).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `buffer_entries` cannot give
    /// every VC at least one slot.
    pub fn new(n_in: usize, n_out: usize, buffer_entries: usize, vc_mode: VcMode) -> Self {
        assert!(n_in > 0 && n_out > 0, "crossbar dimensions must be nonzero");
        let vcs = vc_mode.vc_count();
        let per_vc = buffer_entries / vcs;
        assert!(per_vc > 0, "buffer_entries must cover every VC");
        let in_words = n_in.div_ceil(64);
        Crossbar {
            inputs: (0..n_in)
                .map(|_| InputPort {
                    vcs: (0..vcs).map(|_| VecDeque::new()).collect(),
                    capacity_per_vc: per_vc,
                    last_vc: 0,
                })
                .collect(),
            n_out,
            grant_ptr: vec![0; n_out],
            vc_mode,
            iterations: 1,
            stats: CrossbarStats::default(),
            occupancy: 0,
            busy_in: vec![0; in_words],
            in_words,
            scratch: StepScratch {
                input_done: vec![false; n_in],
                output_done: vec![false; n_out],
                proposal: vec![None; n_in],
                request_words: vec![0; n_out * in_words],
            },
        }
    }

    /// Sets the number of iSlip iterations per cycle (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        assert!(iterations > 0, "iSlip needs at least one iteration");
        self.iterations = iterations;
        self
    }

    /// Number of input ports.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output ports.
    pub fn num_outputs(&self) -> usize {
        self.n_out
    }

    /// The virtual channel a request uses under the current configuration.
    pub fn vc_for(&self, req: &Request) -> VcIndex {
        match self.vc_mode {
            VcMode::Shared => 0,
            VcMode::SplitPim => usize::from(req.kind.is_pim()),
        }
    }

    /// Whether `input` can accept a request of the given PIM-ness now.
    pub fn can_inject(&self, input: usize, is_pim: bool) -> bool {
        let vc = match self.vc_mode {
            VcMode::Shared => 0,
            VcMode::SplitPim => usize::from(is_pim),
        };
        let p = &self.inputs[input];
        p.vcs[vc].len() < p.capacity_per_vc
    }

    /// Injects `req` at `input`, destined for output port `dest`. The
    /// injection cycle `_now` is unused: the crossbar keeps no
    /// timestamps.
    ///
    /// # Errors
    ///
    /// Returns the request back if the target VC buffer is full.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `dest` is out of range.
    pub fn try_inject(
        &mut self,
        _now: Cycle,
        input: usize,
        req: Request,
        dest: usize,
    ) -> Result<(), Request> {
        assert!(dest < self.n_out, "dest out of range");
        let vc = self.vc_for(&req);
        let p = &mut self.inputs[input];
        if p.vcs[vc].len() >= p.capacity_per_vc {
            self.stats.inject_stalls += 1;
            return Err(req);
        }
        p.vcs[vc].push_back(Flit { req, dest });
        self.busy_in[input / 64] |= 1 << (input % 64);
        self.occupancy += 1;
        self.stats.injected += 1;
        Ok(())
    }

    /// Total flits buffered in the crossbar. O(1): maintained on
    /// inject/eject.
    pub fn total_occupancy(&self) -> usize {
        debug_assert_eq!(
            self.occupancy,
            self.inputs.iter().map(InputPort::occupancy).sum::<usize>()
        );
        self.occupancy
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CrossbarStats {
        self.stats
    }

    /// Advances the crossbar over a span of cycles it is known to be
    /// quiet, the interconnect mirror of the controller's
    /// `replay_span`: returns `true` — and is exactly equivalent to
    /// calling [`Crossbar::step`] once per cycle of the span — iff the
    /// crossbar buffers nothing.
    ///
    /// Exactness argument: an empty arbitration cycle grants nothing,
    /// leaves every grant pointer and VC round-robin pointer untouched
    /// (iSlip pointers only advance on successful grants), and adds zero
    /// to the occupancy integral, so any number of them collapse to a
    /// no-op. With flits buffered the span cannot be collapsed (grants
    /// would fire and move arbiter state), so the caller must fall back to
    /// per-cycle stepping; `false` signals that without touching anything.
    pub fn skip_quiet_span(&mut self, _first: Cycle, _cycles: u64) -> bool {
        if self.occupancy != 0 {
            return false;
        }
        debug_assert_eq!(
            self.inputs.iter().map(InputPort::occupancy).sum::<usize>(),
            0,
            "occupancy counter out of sync with input buffers"
        );
        true
    }

    /// Head-flit VC an input proposes this cycle: the modified iSlip VC
    /// round-robin (switch away from `last_vc` when the other VC has
    /// traffic).
    fn propose_vc(&self, input: usize) -> Option<VcIndex> {
        let p = &self.inputs[input];
        match p.vcs.len() {
            1 => (!p.vcs[0].is_empty()).then_some(0),
            _ => {
                let other = 1 - p.last_vc;
                if !p.vcs[other].is_empty() {
                    Some(other)
                } else if !p.vcs[p.last_vc].is_empty() {
                    Some(p.last_vc)
                } else {
                    None
                }
            }
        }
    }

    /// Runs one arbitration cycle.
    ///
    /// `eject(output, vc, request)` is called for each granted flit and
    /// must return `true` to accept it (downstream queue has space). On
    /// `false`, the flit stays queued and the grant pointer does not
    /// advance (iSlip only advances pointers on successful grants).
    pub fn step<F>(&mut self, _now: Cycle, mut eject: F)
    where
        F: FnMut(usize, VcIndex, &Request) -> bool,
    {
        if self.occupancy == 0 {
            // Nothing buffered: arbitration would grant nothing and leave
            // every grant pointer and VC round-robin untouched, so the
            // whole step reduces to the (zero) occupancy-integral update.
            return;
        }
        self.stats.occupancy_integral += self.occupancy as u64;
        let n_in = self.inputs.len();
        // Borrow the scratch out of self for the duration of the step so
        // the arbitration loops can mutate `self.inputs` freely; the
        // buffers go back at the end, so steady-state steps never allocate.
        let mut scratch = std::mem::take(&mut self.scratch);
        let input_done = &mut scratch.input_done;
        let output_done = &mut scratch.output_done;
        input_done.clear();
        input_done.resize(n_in, false);
        output_done.clear();
        output_done.resize(self.n_out, false);
        scratch.proposal.resize(n_in, None);
        let in_words = self.in_words;
        scratch.request_words.resize(self.n_out * in_words, 0);
        for _iter in 0..self.iterations {
            // Gather one proposal per ungranted input toward an
            // ungranted output: the VC round-robin choice first, falling
            // back to the other VC if its head targets a free output.
            // Only inputs with buffered flits (the `busy_in` set) are
            // visited, in the same ascending order as the old full scan.
            let proposal = &mut scratch.proposal;
            let request_words = &mut scratch.request_words;
            proposal.fill(None);
            request_words.fill(0);
            let mut any_requests = false;
            for (wi, &word) in self.busy_in.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let i = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if input_done[i] {
                        continue;
                    }
                    let Some(first) = self.propose_vc(i) else {
                        continue;
                    };
                    let n_vcs = self.inputs[i].vcs.len();
                    // The preferred VC, then any other nonempty VC.
                    for off in 0..n_vcs {
                        let vc = if off == 0 {
                            first
                        } else {
                            let other = (first + off) % n_vcs;
                            if self.inputs[i].vcs[other].is_empty() {
                                continue;
                            }
                            other
                        };
                        let dest = self.inputs[i].vcs[vc]
                            .front()
                            .expect("candidate VC must be nonempty")
                            .dest;
                        if !output_done[dest] {
                            proposal[i] = Some(vc);
                            request_words[dest * in_words + i / 64] |= 1 << (i % 64);
                            any_requests = true;
                            break;
                        }
                    }
                }
            }
            if !any_requests {
                break;
            }
            // Output arbitration: rotating priority over inputs, advanced
            // only on a successful grant. The requester set is a bitmask,
            // so the rotating search is find-first-set instead of a
            // membership scan.
            for out in 0..self.n_out {
                if output_done[out] {
                    continue;
                }
                let stripe = &request_words[out * in_words..(out + 1) * in_words];
                let Some(cand) = first_set_from(stripe, self.grant_ptr[out]) else {
                    continue;
                };
                let vc = proposal[cand].expect("granted input must have proposed");
                let flit = *self.inputs[cand].vcs[vc]
                    .front()
                    .expect("candidate VC must be nonempty");
                debug_assert_eq!(flit.dest, out);
                if eject(out, vc, &flit.req) {
                    self.inputs[cand].vcs[vc].pop_front();
                    if self.inputs[cand].occupancy() == 0 {
                        self.busy_in[cand / 64] &= !(1 << (cand % 64));
                    }
                    self.occupancy -= 1;
                    self.inputs[cand].last_vc = vc;
                    self.grant_ptr[out] = (cand + 1) % n_in;
                    self.stats.ejected += 1;
                    input_done[cand] = true;
                    output_done[out] = true;
                } else {
                    self.stats.eject_stalls += 1;
                    // Backpressured output: no point retrying it this
                    // cycle.
                    output_done[out] = true;
                }
                // One grant attempt per output per iteration.
            }
        }
        self.scratch = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_types::{AppId, PhysAddr, PimCommand, PimOpKind, RequestId, RequestKind};

    fn mem_req(id: u64, src: u16) -> Request {
        Request::new(
            RequestId(id),
            AppId::GPU,
            RequestKind::MemRead,
            PhysAddr(id * 32),
            src,
            0,
        )
    }

    fn pim_req(id: u64, src: u16) -> Request {
        let cmd = PimCommand {
            op: PimOpKind::RfLoad,
            channel: 0,
            row: 0,
            col: 0,
            rf_entry: 0,
            block_start: false,
            block_id: 0,
        };
        Request::new(
            RequestId(id),
            AppId::PIM,
            RequestKind::Pim(cmd),
            PhysAddr(0),
            src,
            0,
        )
    }

    #[test]
    fn delivers_a_flit_end_to_end() {
        let mut x = Crossbar::new(4, 2, 8, VcMode::Shared);
        x.try_inject(0, 2, mem_req(7, 2), 1).unwrap();
        let mut seen = Vec::new();
        x.step(0, |out, vc, req| {
            seen.push((out, vc, req.id.0));
            true
        });
        assert_eq!(seen, vec![(1, 0, 7)]);
        assert_eq!(x.total_occupancy(), 0);
    }

    #[test]
    fn one_grant_per_output_per_cycle() {
        let mut x = Crossbar::new(4, 1, 8, VcMode::Shared);
        for i in 0..4 {
            x.try_inject(0, i, mem_req(i as u64, i as u16), 0).unwrap();
        }
        let mut count = 0;
        x.step(0, |_, _, _| {
            count += 1;
            true
        });
        assert_eq!(count, 1);
        assert_eq!(x.total_occupancy(), 3);
    }

    #[test]
    fn grant_pointer_rotates_fairly() {
        let mut x = Crossbar::new(3, 1, 8, VcMode::Shared);
        // Keep all inputs loaded; the output must serve them round-robin.
        for round in 0..9u64 {
            for i in 0..3 {
                let _ = x.try_inject(0, i, mem_req(round * 3 + i as u64, i as u16), 0);
            }
        }
        let mut served = Vec::new();
        for cyc in 0..9 {
            x.step(cyc, |_, _, req| {
                served.push(req.src_port);
                true
            });
        }
        let counts = [0u16, 1, 2].map(|p| served.iter().filter(|&&s| s == p).count());
        assert_eq!(counts, [3, 3, 3], "iSlip must serve equal loads equally");
    }

    #[test]
    fn backpressure_keeps_flit_queued() {
        let mut x = Crossbar::new(1, 1, 8, VcMode::Shared);
        x.try_inject(0, 0, mem_req(1, 0), 0).unwrap();
        x.step(0, |_, _, _| false);
        assert_eq!(x.total_occupancy(), 1, "refused flit must stay");
        let mut got = 0;
        x.step(1, |_, _, _| {
            got += 1;
            true
        });
        assert_eq!(got, 1);
        assert_eq!(x.stats().eject_stalls, 1);
    }

    #[test]
    fn full_vc_rejects_injection() {
        let mut x = Crossbar::new(1, 1, 2, VcMode::Shared);
        x.try_inject(0, 0, mem_req(0, 0), 0).unwrap();
        x.try_inject(0, 0, mem_req(1, 0), 0).unwrap();
        assert!(x.try_inject(0, 0, mem_req(2, 0), 0).is_err());
        assert!(!x.can_inject(0, false));
        assert_eq!(x.stats().inject_stalls, 1);
    }

    #[test]
    fn split_vcs_isolate_pim_from_mem() {
        // VC2: fill the PIM VC completely; MEM injections must still work.
        let mut x = Crossbar::new(1, 1, 8, VcMode::SplitPim);
        for i in 0..4 {
            x.try_inject(0, 0, pim_req(i, 0), 0).unwrap();
        }
        assert!(!x.can_inject(0, true), "PIM VC full");
        assert!(x.can_inject(0, false), "MEM VC unaffected");
        x.try_inject(0, 0, mem_req(100, 0), 0).unwrap();
    }

    #[test]
    fn vc2_alternates_mem_and_pim_on_a_link() {
        let mut x = Crossbar::new(1, 1, 64, VcMode::SplitPim);
        for i in 0..4 {
            x.try_inject(0, 0, pim_req(i, 0), 0).unwrap();
            x.try_inject(0, 0, mem_req(100 + i, 0), 0).unwrap();
        }
        let mut kinds = Vec::new();
        for cyc in 0..8 {
            x.step(cyc, |_, _, req| {
                kinds.push(req.kind.is_pim());
                true
            });
        }
        // Round-robin between VCs: strict alternation while both have
        // traffic.
        for w in kinds.windows(2).take(6) {
            assert_ne!(w[0], w[1], "VCs must alternate under load: {kinds:?}");
        }
    }

    #[test]
    fn shared_vc_lets_pim_block_mem() {
        // The VC1 pathology from the paper: PIM flits ahead of a MEM flit
        // in the same FIFO deny it service while the MC ejection is slow.
        let mut x = Crossbar::new(1, 1, 16, VcMode::Shared);
        for i in 0..8 {
            x.try_inject(0, 0, pim_req(i, 0), 0).unwrap();
        }
        x.try_inject(0, 0, mem_req(100, 0), 0).unwrap();
        // Downstream accepts nothing (e.g. PIM queue full at the MC).
        for cyc in 0..4 {
            x.step(cyc, |_, _, req| !req.kind.is_pim());
        }
        // The MEM request is still stuck behind PIM heads.
        assert_eq!(x.total_occupancy(), 9);
    }

    #[test]
    fn second_islip_iteration_recovers_lost_inputs() {
        // Input 0 and 1 both propose their PIM heads to output 0; with two
        // VCs and two iterations, the loser's MEM head (to output 1) still
        // goes through in the same cycle.
        let mut one = Crossbar::new(2, 2, 64, VcMode::SplitPim);
        let mut two = Crossbar::new(2, 2, 64, VcMode::SplitPim).with_iterations(2);
        for x in [&mut one, &mut two] {
            for i in 0..2 {
                x.try_inject(0, i, pim_req(i as u64, i as u16), 0).unwrap();
                x.try_inject(0, i, mem_req(10 + i as u64, i as u16), 1)
                    .unwrap();
            }
        }
        let count = |x: &mut Crossbar| {
            let mut n = 0;
            x.step(0, |_, _, _| {
                n += 1;
                true
            });
            n
        };
        let n1 = count(&mut one);
        let n2 = count(&mut two);
        assert!(n2 > n1, "two iterations must deliver more ({n1} vs {n2})");
        assert_eq!(n2, 2, "both outputs busy with two iterations");
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = Crossbar::new(2, 2, 8, VcMode::Shared).with_iterations(0);
    }

    #[test]
    fn occupancy_integral_accumulates() {
        let mut x = Crossbar::new(1, 1, 8, VcMode::Shared);
        x.try_inject(0, 0, mem_req(0, 0), 0).unwrap();
        x.step(0, |_, _, _| false);
        x.step(1, |_, _, _| false);
        assert_eq!(x.stats().occupancy_integral, 2);
    }

    #[test]
    fn skip_quiet_span_matches_stepping_empty_cycles() {
        // Build two crossbars with identical mid-rotation arbiter state,
        // advance one with per-cycle empty steps and the other with a
        // bulk quiet span, then check the next contended cycle grants
        // identically (pointer state preserved) and stats agree.
        let build = || {
            let mut x = Crossbar::new(3, 1, 8, VcMode::Shared);
            for i in 0..3 {
                x.try_inject(0, i, mem_req(i as u64, 0), 0).unwrap();
            }
            // One contended cycle leaves the output grant pointer mid-way.
            x.step(0, |_, _, _| true);
            // Drain the rest so the span is genuinely quiet.
            x.step(1, |_, _, _| true);
            x.step(2, |_, _, _| true);
            assert_eq!(x.total_occupancy(), 0);
            x
        };
        let mut stepped = build();
        let mut skipped = build();
        for cyc in 3..40 {
            stepped.step(cyc, |_, _, _| true);
        }
        assert!(skipped.skip_quiet_span(3, 37), "empty crossbar must skip");
        assert_eq!(stepped.stats(), skipped.stats());
        for x in [&mut stepped, &mut skipped] {
            for i in 0..3 {
                x.try_inject(0, i, mem_req(10 + i as u64, 0), 0).unwrap();
            }
        }
        let grant = |x: &mut Crossbar| {
            let mut got = Vec::new();
            x.step(40, |out, vc, req| {
                got.push((out, vc, req.id.0));
                true
            });
            got
        };
        assert_eq!(
            grant(&mut stepped),
            grant(&mut skipped),
            "arbiter state must be untouched by the bulk skip"
        );
    }

    #[test]
    fn skip_quiet_span_refuses_buffered_flits() {
        let mut x = Crossbar::new(2, 1, 8, VcMode::Shared);
        x.try_inject(0, 0, mem_req(1, 1), 0).unwrap();
        assert!(!x.skip_quiet_span(0, 5), "buffered flit blocks the skip");
        assert_eq!(x.total_occupancy(), 1, "refusal must not touch state");
    }
}
