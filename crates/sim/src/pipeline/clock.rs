//! Exact rational coupling between the GPU and DRAM clock domains.

use pimsim_types::Cycle;

/// The two clock domains of Table I, coupled by the exact integer rational
/// `num/den` = DRAM MHz / GPU MHz (see `SystemConfig::dram_clock_ratio`).
///
/// Per GPU cycle the coupler accrues `num` into an accumulator; every
/// `den` of accumulated credit fires one DRAM tick. Because the state is
/// three integers, a span of idle GPU cycles can be applied in one
/// [`ClockCoupler::jump_to`] that lands on exactly the clock values
/// per-cycle stepping would produce — the property the event-driven
/// fast-forward path relies on.
#[derive(Debug, Clone)]
pub struct ClockCoupler {
    gpu: Cycle,
    dram: Cycle,
    /// Holds `gpu_cycles * num mod den`; a DRAM tick fires per `den` carry.
    acc: u64,
    num: u64,
    den: u64,
}

impl ClockCoupler {
    /// A coupler at cycle zero in both domains.
    ///
    /// # Panics
    ///
    /// Panics if either ratio term is zero.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(num > 0 && den > 0, "clock ratio terms must be nonzero");
        ClockCoupler {
            gpu: 0,
            dram: 0,
            acc: 0,
            num,
            den,
        }
    }

    /// GPU cycles elapsed.
    pub fn gpu_now(&self) -> Cycle {
        self.gpu
    }

    /// DRAM cycles elapsed.
    pub fn dram_now(&self) -> Cycle {
        self.dram
    }

    /// Accrues one GPU cycle of DRAM-clock credit. Call once per GPU
    /// cycle, before draining ticks with [`ClockCoupler::take_dram_tick`].
    pub fn accrue_gpu_cycle(&mut self) {
        self.acc += self.num;
    }

    /// Consumes one pending DRAM tick, returning the cycle number to step
    /// the DRAM domain at, or `None` when the accrued credit is spent.
    pub fn take_dram_tick(&mut self) -> Option<Cycle> {
        if self.acc >= self.den {
            self.acc -= self.den;
            let now = self.dram;
            self.dram += 1;
            Some(now)
        } else {
            None
        }
    }

    /// Consumes every pending DRAM tick at once, returning the first tick
    /// number and the tick count — `(first, n)` stands for the ticks
    /// `first, first+1, …, first+n-1`. Bit-identical to draining the same
    /// credit through repeated [`ClockCoupler::take_dram_tick`] calls,
    /// and as cheap: one GPU cycle's credit fires at most `⌈num/den⌉`
    /// ticks, so subtracting beats dividing. Exists so the memory stage
    /// (and a lagging partition replaying a visit from its own copy) can
    /// dispatch one batch per GPU cycle covering all of its DRAM ticks.
    pub fn take_dram_span(&mut self) -> (Cycle, u64) {
        let first = self.dram;
        while self.take_dram_tick().is_some() {}
        (first, self.dram - first)
    }

    /// Ends the GPU cycle.
    pub fn finish_gpu_cycle(&mut self) {
        self.gpu += 1;
    }

    /// The largest GPU-cycle target `g` such that a
    /// [`jump_to(g)`](ClockCoupler::jump_to) would leave
    /// `dram_now() <= dram_bound` — i.e. every DRAM tick the jump skips
    /// over is strictly below `dram_bound`. Used by the
    /// fast-forward path to jump up to (but never past) the memory
    /// stage's stall/burst horizon.
    ///
    /// With `span = g - gpu_now()`, the jump fires
    /// `(acc + span·num) div den` ticks; requiring that to stay `≤
    /// dram_bound - dram_now()` gives
    /// `span ≤ ((dram_bound - dram + 1)·den - 1 - acc) div num`.
    pub fn max_jump_for_dram_bound(&self, dram_bound: Cycle) -> Cycle {
        if dram_bound < self.dram {
            return self.gpu;
        }
        let s = dram_bound - self.dram;
        let span = ((s + 1)
            .saturating_mul(self.den)
            .saturating_sub(1)
            .saturating_sub(self.acc))
            / self.num;
        self.gpu.saturating_add(span)
    }

    /// Jumps both domains over `target - gpu_now()` idle GPU cycles in one
    /// step: `steps = (acc + span*num) div den`, `acc' = same mod den` —
    /// bit-identical to accruing and draining the span cycle by cycle.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `target` is not in the past.
    pub fn jump_to(&mut self, target: Cycle) {
        debug_assert!(target >= self.gpu, "clock jump must move forward");
        let span = target - self.gpu;
        let total = self.acc + span * self.num;
        self.dram += total / self.den;
        self.acc = total % self.den;
        self.gpu = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps `cycles` GPU cycles the slow way, counting DRAM ticks.
    fn lockstep(c: &mut ClockCoupler, cycles: u64) -> u64 {
        let mut ticks = 0;
        for _ in 0..cycles {
            c.accrue_gpu_cycle();
            while c.take_dram_tick().is_some() {
                ticks += 1;
            }
            c.finish_gpu_cycle();
        }
        ticks
    }

    #[test]
    fn jump_matches_lockstep_for_awkward_ratios() {
        for (num, den) in [(1, 1), (7, 5), (3500, 1410), (1, 3), (5, 7)] {
            let mut a = ClockCoupler::new(num, den);
            let mut b = ClockCoupler::new(num, den);
            lockstep(&mut a, 997);
            b.jump_to(997);
            assert_eq!(a.gpu_now(), b.gpu_now(), "{num}/{den}");
            assert_eq!(a.dram_now(), b.dram_now(), "{num}/{den}");
            assert_eq!(a.acc, b.acc, "{num}/{den}");
            // And again from a mid-stream (nonzero accumulator) state.
            lockstep(&mut a, 13);
            b.jump_to(997 + 13);
            assert_eq!(a.dram_now(), b.dram_now());
            assert_eq!(a.acc, b.acc);
        }
    }

    #[test]
    fn span_drain_matches_tick_by_tick_drain() {
        for (num, den) in [(1, 1), (7, 5), (3500, 1410), (1, 3), (5, 7)] {
            let mut a = ClockCoupler::new(num, den);
            let mut b = ClockCoupler::new(num, den);
            for _ in 0..997 {
                a.accrue_gpu_cycle();
                b.accrue_gpu_cycle();
                let mut ticks_a = Vec::new();
                while let Some(t) = a.take_dram_tick() {
                    ticks_a.push(t);
                }
                let (first, n) = b.take_dram_span();
                let ticks_b: Vec<Cycle> = (0..n).map(|i| first + i).collect();
                assert_eq!(ticks_a, ticks_b, "{num}/{den}");
                a.finish_gpu_cycle();
                b.finish_gpu_cycle();
                assert_eq!(a.dram_now(), b.dram_now(), "{num}/{den}");
                assert_eq!(a.acc, b.acc, "{num}/{den}");
            }
        }
    }

    #[test]
    fn max_jump_is_the_largest_target_within_the_bound() {
        for (num, den) in [(1, 1), (7, 5), (3500, 1410), (1, 3), (5, 7)] {
            let mut c = ClockCoupler::new(num, den);
            lockstep(&mut c, 321); // arbitrary mid-stream state
            for bound_off in [0u64, 1, 2, 17] {
                let bound = c.dram_now() + bound_off;
                let g = c.max_jump_for_dram_bound(bound);
                assert!(g >= c.gpu_now(), "{num}/{den}: jump target in the past");
                // Jumping to g stays within the bound...
                let mut at = c.clone();
                at.jump_to(g);
                assert!(at.dram_now() <= bound, "{num}/{den} bound {bound}");
                // ...and one more GPU cycle would cross it.
                let mut past = c.clone();
                past.jump_to(g + 1);
                assert!(past.dram_now() > bound, "{num}/{den}: g not maximal");
            }
        }
    }

    #[test]
    fn dram_tick_numbers_are_sequential() {
        let mut c = ClockCoupler::new(2, 1);
        c.accrue_gpu_cycle();
        assert_eq!(c.take_dram_tick(), Some(0));
        assert_eq!(c.take_dram_tick(), Some(1));
        assert_eq!(c.take_dram_tick(), None);
        c.finish_gpu_cycle();
        assert_eq!(c.gpu_now(), 1);
        assert_eq!(c.dram_now(), 2);
    }
}
