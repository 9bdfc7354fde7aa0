//! Parallel sweep helper: runs independent simulations side by side on
//! the process-wide fan-out ([`pimsim_pool::global`]).

/// Applies `f` to every item, fanning out across the process-wide
/// fan-out, and returns results in input order.
///
/// Each item is claimed on its own, so simulations of uneven length
/// balance across threads. A panic in any item propagates to the caller
/// with its own payload, and a call from inside another sweep's item
/// runs inline.
///
/// The width is `PIMSIM_THREADS` when set, else the machine's available
/// parallelism; at width 1 this is a plain serial map on the calling
/// thread.
///
/// # Example
///
/// ```
/// use pimsim_sim::experiments::sweep::parallel_map;
///
/// let squares = parallel_map((0..100u64).collect(), |x| x * x);
/// assert_eq!(squares[7], 49);
/// ```
pub fn parallel_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    pimsim_pool::global().map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = parallel_map((0..1000u32).collect(), |x| x + 1);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    #[test]
    fn handles_empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn handles_single_item() {
        let out = parallel_map(vec![41u32], |x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    #[should_panic]
    fn propagates_worker_panics() {
        let _ = parallel_map(vec![0u32, 1, 2, 3], |x| {
            assert!(x != 2, "boom");
            x
        });
    }

    #[test]
    fn balances_heterogeneous_work() {
        // Items with wildly different costs still come back in order.
        let out = parallel_map((0..64u64).collect(), |x| {
            let spin = if x % 8 == 0 { 200_000 } else { 10 };
            let mut acc = x;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            x * 2
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn nests_without_deadlocking() {
        // A sweep whose items themselves call parallel_map must
        // complete — inner calls run inline.
        let out = parallel_map((0..8u64).collect(), |x| {
            parallel_map((0..8u64).collect(), move |y| x * 8 + y)
                .into_iter()
                .sum::<u64>()
        });
        for (i, v) in out.iter().enumerate() {
            let base = i as u64 * 8;
            assert_eq!(*v, (base..base + 8).sum::<u64>());
        }
    }
}
