//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API subset the suite's benches use — benchmark groups,
//! `bench_function` / `bench_with_input`, `Bencher::iter`,
//! `criterion_group!` / `criterion_main!` — backed by a simple but
//! honest harness: per benchmark it warms up for the configured time,
//! then runs the configured number of samples, each sized to the
//! measurement budget, and reports min/median/mean per-iteration times
//! on stdout.
//!
//! It is not statistically fancy (no outlier classification, no HTML
//! reports), but timings are real wall-clock medians and comparable
//! across runs on the same machine, which is all the bench trajectory
//! needs.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// Opaque value barrier: prevents the optimizer from deleting the
/// benchmarked computation.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Benchmark identifier: `group/function/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Id from a function name and a parameter display value.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { name: s }
    }
}

/// Top-level harness handle.
pub struct Criterion {
    /// Default sample count for groups that don't override it.
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 20,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(2),
        }
    }
}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            warm_up: self.warm_up,
            measurement: self.measurement,
            _parent: std::marker::PhantomData,
        }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) {
        run_one(
            &id.into().name,
            self.sample_size,
            self.warm_up,
            self.measurement,
            &mut f,
        );
    }
}

/// A named group of benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    _parent: std::marker::PhantomData<&'a ()>,
}

impl BenchmarkGroup<'_> {
    /// Number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Warm-up duration before sampling.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Total measurement budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Benchmark a closure.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) {
        let id = id.into();
        let label = format!("{}/{}", self.name, id.name);
        run_one(
            &label,
            self.sample_size,
            self.warm_up,
            self.measurement,
            &mut f,
        );
    }

    /// Benchmark a closure over an explicit input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) {
        let id = id.into();
        let label = format!("{}/{}", self.name, id.name);
        run_one(
            &label,
            self.sample_size,
            self.warm_up,
            self.measurement,
            &mut |b| f(b, input),
        );
    }

    /// Close the group (printing is immediate; nothing buffered).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; records the timed routine.
pub struct Bencher {
    /// Iterations to run in the current sample.
    iters: u64,
    /// Measured elapsed time for those iterations.
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine`, running it `self.iters` times.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_one(
    label: &str,
    samples: usize,
    warm_up: Duration,
    measurement: Duration,
    f: &mut dyn FnMut(&mut Bencher),
) {
    // Warm-up: run single iterations until the warm-up budget is spent,
    // measuring the per-iteration cost to size the samples.
    let warm_start = Instant::now();
    let mut iter_estimate = Duration::ZERO;
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < warm_up || warm_iters == 0 {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        iter_estimate += b.elapsed;
        warm_iters += 1;
        if warm_iters >= 1_000_000 {
            break;
        }
    }
    let per_iter = iter_estimate
        .checked_div(warm_iters as u32)
        .unwrap_or_default();
    // Size each sample so all samples together fit the measurement
    // budget, at least one iteration per sample.
    let per_sample = measurement.checked_div(samples as u32).unwrap_or_default();
    let iters_per_sample = if per_iter.is_zero() {
        1_000
    } else {
        (per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 10_000_000) as u64
    };

    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher {
            iters: iters_per_sample,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        times.push(b.elapsed.as_secs_f64() / iters_per_sample as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min = times[0];
    let median = times[times.len() / 2];
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    println!(
        "bench: {label:<50} min {:>12} median {:>12} mean {:>12} ({} samples x {} iters)",
        fmt_time(min),
        fmt_time(median),
        fmt_time(mean),
        samples,
        iters_per_sample,
    );
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

/// Build the benchmark entry function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Build `main` from one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench -- <filter>` arguments are accepted and
            // ignored (the shim always runs everything).
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_selftest");
        group
            .sample_size(5)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(20));
        let mut runs = 0u64;
        group.bench_function("noop", |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            })
        });
        group.finish();
        assert!(runs > 0, "benchmark closure never ran");
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_selftest2");
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(2))
            .measurement_time(Duration::from_millis(10));
        let data = vec![1u64, 2, 3];
        group.bench_with_input(BenchmarkId::new("sum", data.len()), &data, |b, d| {
            b.iter(|| d.iter().sum::<u64>())
        });
        group.finish();
    }
}
