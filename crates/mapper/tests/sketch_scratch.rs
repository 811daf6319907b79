//! Counting-allocator proof that the sketch keeps O(w) scratch.
//!
//! This test binary installs a global allocator that tracks the calling
//! thread's live heap bytes and their peak, then runs [`minimizers`]
//! and [`minimizers_windowed`] over a 1 Mbp sequence. Besides the
//! returned `Vec`, extraction may hold only its ring of `w` keys: a
//! buffer of every k-mer's hash (8 bytes per base, ~8 MB here) fails.
//!
//! The counts are per thread: the harness runs the tests of this binary
//! concurrently, and a process-wide counter would book one test's
//! allocations to the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use align_core::{Base, Seq};
use mapper::{minimizers, minimizers_windowed, Minimizer};

struct PeakAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching them
    // never allocates and the allocator cannot re-enter itself.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Book `delta` live bytes on the calling thread and raise its peak.
fn book(delta: isize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` is booked at its new size only: the copy's
        // transient overlap is the allocator's, not the sketch's.
        book(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Run `f` and return its result with the peak of live bytes it added
/// on this thread.
fn peak_added<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// A pseudo-random sequence of `len` bases.
fn mixed_seq(len: usize, salt: u64) -> Seq {
    let mut state = salt | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Base::from_code((state >> 33) as u8 & 3)
        })
        .collect()
}

/// Slack for the ring itself (`w` words) and allocator rounding.
const SCRATCH_BYTES: isize = 4096;

#[test]
fn the_sketch_holds_its_output_and_a_ring_of_w_keys() {
    let s = mixed_seq(1 << 20, 7);
    for (w, k) in [(10, 15), (5, 31), (200, 19)] {
        for (name, sketch) in [
            (
                "minimizers",
                minimizers as fn(&Seq, usize, usize) -> Vec<Minimizer>,
            ),
            ("minimizers_windowed", minimizers_windowed),
        ] {
            let (ms, peak) = peak_added(|| sketch(&s, w, k));
            assert!(ms.len() > s.len() / (w + 1), "{name}: too few minimizers");
            let output = (ms.capacity() * size_of::<Minimizer>()) as isize;
            assert!(
                peak <= output + SCRATCH_BYTES,
                "{name}(w={w}, k={k}) peaked at {peak} live bytes over a {output}-byte output"
            );
        }
    }
}
