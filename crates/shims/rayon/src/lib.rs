//! Offline stand-in for `rayon`'s parallel slice iterators.
//!
//! The build environment has no crates.io access, so this shim provides
//! the subset the suite uses — `par_iter().map(..).collect()` and
//! `par_iter().map_init(..).collect()` — on real OS threads via
//! `std::thread::scope`, the thread that calls `collect` being one of
//! the workers. It is the suite's one fan-out: CPU batches and the
//! blocks of a simulated-GPU launch both run on it, so `--threads`
//! ([`ThreadPoolBuilder`]) sizes them alike. Work is distributed by
//! chunked atomic index claiming, which gives the same key property as
//! rayon's thread pools: with `map_init`, each worker thread creates its
//! per-worker state **once** and reuses it for every item that worker
//! claims. That is the contract the batch aligners rely on for
//! workspace reuse.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Most items claimed per atomic fetch: large enough to amortize
/// contention, small enough to balance skewed workloads (alignment
/// tasks vary in length).
const MAX_CHUNK: usize = 8;

/// Worker count and items per claim for `n` items on a pool of
/// `threads`: about four claims per worker, so a small batch still
/// spreads over every worker and its tail stays short, capped at
/// [`MAX_CHUNK`] for large ones.
fn split(n: usize, threads: usize) -> (usize, usize) {
    let workers = threads.min(n).max(1);
    (workers, (n / (4 * workers)).clamp(1, MAX_CHUNK))
}

/// Global worker-count override installed by [`ThreadPoolBuilder::
/// build_global`]; 0 means "use all available cores".
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads used for parallel iteration.
pub fn current_num_threads() -> usize {
    effective_threads(CONFIGURED_THREADS.load(Ordering::Relaxed))
}

/// Resolve a configured thread count: 0 falls back to the machine's
/// available parallelism.
fn effective_threads(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Error from [`ThreadPoolBuilder::build_global`]. The shim's global
/// configuration can never actually fail; the type exists so callers
/// written against real rayon compile unchanged.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("could not configure the global thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Offline stand-in for rayon's `ThreadPoolBuilder`, supporting the
/// one configuration the suite needs: sizing the global pool.
///
/// Divergence from real rayon: `build_global` here simply (re)sets the
/// worker count used by subsequent parallel iterations — calling it
/// twice reconfigures instead of erroring, because the shim spawns
/// scoped workers per batch rather than keeping a resident pool.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings (all cores).
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Use `n` worker threads; 0 means all available cores.
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    /// Install the configuration globally.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        CONFIGURED_THREADS.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// `.par_iter()` on slice-like containers.
pub trait IntoParallelRefIterator<'a> {
    /// The per-item reference type.
    type Item: Sync + 'a;

    /// A parallel iterator borrowing the items.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Borrowing parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map each item through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Map with per-worker mutable state: `init` runs once per worker
    /// thread, and that worker passes its state to `f` for every item
    /// it processes (rayon's `map_init`).
    pub fn map_init<S, R, INIT, F>(self, init: INIT, f: F) -> ParMapInit<'a, T, INIT, F>
    where
        S: Send,
        R: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, &'a T) -> R + Sync,
    {
        ParMapInit {
            items: self.items,
            init,
            f,
        }
    }
}

/// The `map` adapter.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Execute and collect results in item order.
    pub fn collect<C: FromParallel<R>>(self) -> C {
        let f = self.f;
        C::from_vec(run_parallel(
            current_num_threads(),
            self.items,
            || (),
            move |_, item| f(item),
        ))
    }
}

/// The `map_init` adapter.
pub struct ParMapInit<'a, T, INIT, F> {
    items: &'a [T],
    init: INIT,
    f: F,
}

impl<'a, T, S, R, INIT, F> ParMapInit<'a, T, INIT, F>
where
    T: Sync,
    S: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, &'a T) -> R + Sync,
{
    /// Execute and collect results in item order.
    pub fn collect<C: FromParallel<R>>(self) -> C {
        C::from_vec(run_parallel(
            current_num_threads(),
            self.items,
            self.init,
            self.f,
        ))
    }
}

/// Containers a parallel map can collect into.
pub trait FromParallel<R> {
    /// Build from the in-order result vector.
    fn from_vec(v: Vec<R>) -> Self;
}

impl<R> FromParallel<R> for Vec<R> {
    fn from_vec(v: Vec<R>) -> Vec<R> {
        v
    }
}

/// The fan-out: `workers` threads — the calling one included, so a pool
/// of one spawns nothing — claim chunks of `items` off an atomic
/// counter and hand back what they claimed, stitched by start index
/// after the join. A worker's panic is re-raised with its own payload.
fn run_parallel<'a, T, S, R, INIT, F>(threads: usize, items: &'a [T], init: INIT, f: F) -> Vec<R>
where
    T: Sync,
    S: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, &'a T) -> R + Sync,
{
    let n = items.len();
    let (workers, chunk) = split(n, threads);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut claimed: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                return claimed;
            }
            let end = (start + chunk).min(n);
            let out = items[start..end].iter().map(|t| f(&mut state, t));
            claimed.push((start, out.collect()));
        }
    };
    let mut chunks = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut chunks = work();
        for helper in helpers {
            match helper.join() {
                Ok(claimed) => chunks.extend(claimed),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        chunks
    });
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut results = Vec::with_capacity(n);
    results.extend(chunks.into_iter().flat_map(|(_, out)| out));
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_order() {
        // Results that own heap memory, on either side of one claim
        // and with fewer, as many and more items than workers.
        for n in [1, MAX_CHUNK, MAX_CHUNK + 1, 10_000] {
            let v: Vec<usize> = (0..n).collect();
            let want: Vec<String> = v.iter().map(|x| format!("#{}", x * 2)).collect();
            for threads in [1, 2, 5] {
                let out = run_parallel(threads, &v, || (), |_, &x| format!("#{}", x * 2));
                assert_eq!(out, want, "{n} items on {threads} threads");
            }
        }
        let v: Vec<usize> = (0..10_000).collect();
        let out: Vec<Vec<usize>> = v.par_iter().map(|&x| vec![x * 2]).collect();
        assert!(out.iter().enumerate().all(|(i, o)| *o == [i * 2]));
    }

    #[test]
    fn a_panicking_item_surfaces_its_own_payload() {
        fn poisoned(x: &usize) -> usize {
            assert!(*x != 41, "item {x} is poisoned");
            *x
        }
        let v: Vec<usize> = (0..100).collect();
        let runs: [&(dyn Fn() -> Vec<usize> + std::panic::RefUnwindSafe); 3] = [
            &|| run_parallel(1, &v, || (), |_, x| poisoned(x)),
            &|| run_parallel(3, &v, || (), |_, x| poisoned(x)),
            &|| v.par_iter().map(poisoned).collect(),
        ];
        for run in runs {
            let panic = std::panic::catch_unwind(run).expect_err("item 41 panics");
            let msg = panic.downcast_ref::<String>().expect("the item's message");
            assert_eq!(msg, "item 41 is poisoned");
        }
    }

    #[test]
    fn empty_input() {
        let v: Vec<u32> = Vec::new();
        let out: Vec<u32> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn map_init_reuses_state_per_worker() {
        static INITS: AtomicUsize = AtomicUsize::new(0);
        let v: Vec<usize> = (0..50_000).collect();
        let out: Vec<usize> = v
            .par_iter()
            .map_init(
                || {
                    INITS.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |state, &x| {
                    *state += 1;
                    x + 1
                },
            )
            .collect();
        assert_eq!(out[17], 18);
        // init ran once per worker, not once per item.
        let inits = INITS.load(Ordering::Relaxed);
        assert!(inits <= current_num_threads(), "{inits} inits");
        assert!(inits >= 1);
    }

    /// Run `n` lock-stepped items on a 2-thread pool and return how
    /// many each worker got, larger share first. Item `i` does not
    /// finish before its round partner (`i ^ 1`) has started, so the
    /// items cost the same and a worker that claimed both halves of a
    /// round would stall until the deadline.
    fn lockstep_shares(n: usize) -> Vec<usize> {
        let items: Vec<usize> = (0..n).collect();
        let started = AtomicUsize::new(0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let ids = run_parallel(
            2,
            &items,
            || (),
            |_, &i| {
                started.fetch_add(1, Ordering::SeqCst);
                while started.load(Ordering::SeqCst) < (i / 2 * 2 + 2).min(n) {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "item {i} never saw its round partner start"
                    );
                    std::thread::yield_now();
                }
                std::thread::current().id()
            },
        );
        let mut shares: Vec<usize> = Vec::new();
        let mut seen = Vec::new();
        for id in ids {
            match seen.iter().position(|s| *s == id) {
                Some(w) => shares[w] += 1,
                None => {
                    seen.push(id);
                    shares.push(1);
                }
            }
        }
        shares.sort_unstable_by(|a, b| b.cmp(a));
        shares
    }

    #[test]
    fn small_batches_spread_over_every_worker() {
        // clr-long's ~13-task batches: the fixed 8-item claim split
        // them 8/5; one item per claim splits them 7/6.
        assert_eq!(split(13, 2), (2, 1));
        assert_eq!(lockstep_shares(13), vec![7, 6]);
        // Two items are two workers' worth of work, not one chunk.
        assert_eq!(split(2, 2), (2, 1));
        assert_eq!(lockstep_shares(2), vec![1, 1]);
        // Large batches keep the amortizing 8-item claim.
        assert_eq!(split(10_000, 4), (4, MAX_CHUNK));
        assert_eq!(split(1, 8), (1, 1));
    }

    #[test]
    fn effective_threads_resolves_zero_to_all_cores() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
    }

    #[test]
    fn build_global_with_default_is_a_no_op() {
        // Asserting a *changed* global count here would race with the
        // other tests in this binary (they compare against
        // current_num_threads); the CLI integration tests exercise a
        // real override in their own process instead.
        ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn really_parallel_when_cores_allow() {
        // All workers must observe distinct states (no sharing).
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<(usize, usize)> = v
            .par_iter()
            .map_init(Vec::<usize>::new, |seen, &x| {
                seen.push(x);
                (x, seen.len())
            })
            .collect();
        // Per-worker counts are monotone within that worker's items, and
        // every item appears exactly once overall.
        let mut xs: Vec<usize> = out.iter().map(|p| p.0).collect();
        xs.sort_unstable();
        assert_eq!(xs, (0..1000).collect::<Vec<_>>());
    }
}
