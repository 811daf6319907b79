//! Counting-allocator proof of the allocation-free hot path.
//!
//! This test binary installs a global allocator that counts every
//! allocation, then drives a warm [`AlignWorkspace`] over multi-window
//! alignments and asserts the steady state allocates only the returned
//! `Alignment` itself — a handful of allocations per alignment,
//! **independent of the window count** — while the fresh-workspace path
//! pays for the workspace's buffers on top, once per alignment.
//!
//! The count is per thread: the harness runs the tests of this binary
//! concurrently, and a process-wide counter would book one test's
//! allocations to the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use align_core::{Base, Seq};
use genasm_core::{AlignWorkspace, GenAsmConfig, MemStats};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it never
    // allocates and the allocator cannot re-enter itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing Vec reallocates; that is an allocation event for
        // the purposes of "allocation-free".
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A deterministic pair long enough for ~12 windows with a few
/// substitutions scattered in.
fn test_pair() -> (Seq, Seq) {
    let q: Seq = (0..512).map(|i| Base::from_code((i % 4) as u8)).collect();
    let mut bases: Vec<Base> = q.iter().collect();
    for pos in [37, 120, 260, 411, 500] {
        bases[pos] = Base::from_code((bases[pos].code() + 2) % 4);
    }
    (q, bases.into_iter().collect())
}

#[test]
fn steady_state_allocations_do_not_scale_with_windows() {
    let (q, t) = test_pair();
    let cfg = GenAsmConfig::improved();
    let mut ws = AlignWorkspace::with_capacity(cfg.w);

    // Warm up: first alignment may grow buffers to their high-water
    // marks.
    let warm = genasm_core::align_with_workspace(&q, &t, &cfg, &mut ws).unwrap();
    let windows = ws.take_stats().windows;
    assert!(windows >= 10, "want a multi-window pair, got {windows}");

    const RUNS: u64 = 50;
    let before = allocations();
    for _ in 0..RUNS {
        let aln = genasm_core::align_with_workspace(&q, &t, &cfg, &mut ws).unwrap();
        assert_eq!(aln.edit_distance, warm.edit_distance);
    }
    let per_alignment = (allocations() - before) as f64 / RUNS as f64;

    // The only allocations left are the returned Alignment's CIGAR
    // storage (a few Vec growth steps), independent of the number of
    // windows. Before the workspace refactor this path performed 4+
    // allocations per *window* (scratch rows, table rows, ops, staging),
    // i.e. >40 per alignment on this pair.
    assert!(
        per_alignment <= 8.0,
        "steady state allocates {per_alignment:.1} times per alignment \
         over {windows} windows — the hot path is allocating per window"
    );
}

#[test]
fn reused_workspace_allocates_far_less_than_fresh() {
    let (q, t) = test_pair();
    let cfg = GenAsmConfig::improved();
    let mut ws = AlignWorkspace::with_capacity(cfg.w);
    genasm_core::align_with_workspace(&q, &t, &cfg, &mut ws).unwrap(); // warm

    const RUNS: u64 = 20;
    let before = allocations();
    for _ in 0..RUNS {
        genasm_core::align_with_workspace(&q, &t, &cfg, &mut ws).unwrap();
    }
    let reused = allocations() - before;

    let before = allocations();
    for _ in 0..RUNS {
        let mut stats = MemStats::new();
        genasm_core::align_with_stats(&q, &t, &cfg, &mut stats).unwrap();
    }
    let fresh = allocations() - before;

    // A warm workspace leaves only the returned CIGAR's allocations,
    // whatever the window count (the test above bounds them). A fresh
    // workspace allocates the same CIGAR and, on top, its own buffers
    // once per alignment: the four that `with_capacity` sizes up front,
    // the traceback arena among them.
    const WORKSPACE_BUFFERS: u64 = 4;
    assert!(
        fresh >= reused + RUNS * WORKSPACE_BUFFERS,
        "a fresh workspace should cost its buffers on top of the reused path: \
         {reused} reused vs {fresh} fresh allocations over {RUNS} runs"
    );
}
