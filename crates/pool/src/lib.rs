//! Scoped fan-out for the experiment sweeps: runs independent items
//! (whole simulations) side by side on short-lived threads.
//!
//! Each simulation is single-threaded end to end; the only parallelism
//! that pays is running several of them at once. Sweep items run for
//! milliseconds to seconds, so spawning threads per call costs nothing
//! measurable, and no thread outlives the [`FanOut::map`] call that
//! started it.
//!
//! # Scheduling
//!
//! `map` opens a [`std::thread::scope`] with `threads - 1` workers; the
//! calling thread claims items alongside them. Every claim is one
//! `fetch_add` on a shared index, so items of uneven length balance.
//!
//! # Nesting and panics
//!
//! A `map` called from inside another `map`'s item runs inline on its
//! thread, so nested sweeps neither deadlock nor oversubscribe the
//! machine. A panicking item stops further claims, and once every thread
//! has joined, `map` re-raises that item's panic with its own payload.
//!
//! # Determinism
//!
//! Results come back in input order. Items never observe which thread
//! ran them, so independent items give the same results at every width.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

thread_local! {
    /// Whether this thread is running items of some `map`.
    static IN_MAP: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as inside a `map` until dropped, unwinding
/// included.
struct InMap;

impl InMap {
    fn enter() -> Self {
        IN_MAP.with(|f| f.set(true));
        InMap
    }
}

impl Drop for InMap {
    fn drop(&mut self) {
        IN_MAP.with(|f| f.set(false));
    }
}

/// A fan-out width: how many threads, the caller included, a
/// [`FanOut::map`] runs items on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanOut {
    threads: usize,
}

impl FanOut {
    /// Total threads, the caller included.
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results in input order.
    ///
    /// Runs inline when the width (capped at the item count) is one or
    /// when called from inside another `map`'s item.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of an item that panicked.
    pub fn map<I, T, F>(self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        let width = self.threads.min(n);
        if width <= 1 || IN_MAP.with(Cell::get) {
            return items.into_iter().map(f).collect();
        }
        let items: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        // `Relaxed` suffices: the index only hands out claims. Items and
        // results travel through the mutexes and the joins.
        let next = AtomicUsize::new(0);
        let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let claim = || {
            let _in_map = InMap::enter();
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                let item = items[i]
                    .lock()
                    .expect("item slot poisoned")
                    .take()
                    .expect("each item claimed once");
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(value) => done.push((i, value)),
                    Err(payload) => {
                        panic
                            .lock()
                            .expect("panic slot poisoned")
                            .get_or_insert(payload);
                        next.store(n, Ordering::Relaxed);
                        return done;
                    }
                }
            }
        };
        let done = thread::scope(|s| {
            let workers: Vec<_> = (1..width).map(|_| s.spawn(claim)).collect();
            let mut done = claim();
            for w in workers {
                done.extend(w.join().expect("item panics are caught"));
            }
            done
        });
        if let Some(payload) = panic.into_inner().expect("panic slot poisoned") {
            resume_unwind(payload);
        }
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, value) in done {
            out[i] = Some(value);
        }
        out.into_iter()
            .map(|v| v.expect("every item ran"))
            .collect()
    }
}

/// The process-wide fan-out: `PIMSIM_THREADS` when set to a positive
/// integer, else `std::thread::available_parallelism`. Read once, on
/// first use.
pub fn global() -> FanOut {
    static THREADS: OnceLock<usize> = OnceLock::new();
    let threads = *THREADS.get_or_init(|| {
        std::env::var("PIMSIM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, usize::from))
    });
    FanOut { threads }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uneven work: every seventh item spins much longer.
    fn work(x: u64) -> u64 {
        let spin = if x.is_multiple_of(7) { 50_000 } else { 10 };
        let mut acc = x;
        for i in 0..spin {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc) ^ acc ^ (x * 3)
    }

    #[test]
    fn results_are_identical_at_every_width() {
        let serial: Vec<u64> = (0..100).map(work).collect();
        for width in [1, 2, 3, 8] {
            assert_eq!(
                FanOut { threads: width }.map((0..100).collect(), work),
                serial,
                "width {width}"
            );
        }
    }

    #[test]
    fn nested_map_runs_inline_and_clears_the_flag() {
        let outer = FanOut { threads: 4 }.map((0..8u64).collect(), |x| {
            assert!(IN_MAP.with(Cell::get), "items run inside the map");
            let me = thread::current().id();
            let inner = FanOut { threads: 4 }.map((0..8u64).collect(), |y| {
                assert_eq!(thread::current().id(), me, "nested items run inline");
                x * 8 + y
            });
            inner.into_iter().sum::<u64>()
        });
        for (i, v) in outer.iter().enumerate() {
            let base = i as u64 * 8;
            assert_eq!(*v, (base..base + 8).sum::<u64>());
        }
        assert!(!IN_MAP.with(Cell::get), "the caller's flag is cleared");
    }

    #[test]
    fn item_panic_reaches_the_caller_with_its_message() {
        let fan = FanOut { threads: 3 };
        let err = catch_unwind(AssertUnwindSafe(|| {
            fan.map((0..16u32).collect(), |x| {
                assert!(x != 5, "item {x} failed");
                x
            })
        }))
        .expect_err("the panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert_eq!(msg, "item 5 failed");
        assert!(!IN_MAP.with(Cell::get), "unwinding clears the flag");
        // The fan-out stays usable afterwards.
        assert_eq!(fan.map((0..16u32).collect(), |x| x + 1)[15], 16);
    }
}
