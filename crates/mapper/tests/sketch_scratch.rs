//! Counting-allocator proofs that the sketch keeps O(w) scratch and
//! that the index build holds little more than the finished index.
//!
//! This test binary installs a global allocator that tracks the calling
//! thread's live heap bytes and their peak, then runs [`minimizers`]
//! over a 1 Mbp sequence and builds a [`ShardedIndex`] over a 1.2 Mbp,
//! 2-contig reference. Besides the returned `Vec`, extraction may hold
//! only its ring of `w` keys: a buffer of every k-mer's hash (8 bytes
//! per base, ~8 MB here) fails. The build may add a quarter of the
//! finished index to it: collecting the genome's minimizers in one
//! list (16 bytes each, about as much as the index) fails. Mapping a
//! read on a reference of 20 000 contigs may hold a few words per
//! anchor: anything kept per contig (24 bytes each, ~480 kB here)
//! fails.
//!
//! The counts are per thread: the harness runs the tests of this binary
//! concurrently, and a process-wide counter would book one test's
//! allocations to the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use align_core::{Base, Reference, Seq};
use mapper::{minimizers, ChainParams, Minimizer, ShardedIndex};

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
        let (ms, peak) = peak_added(|| minimizers(&s, w, k));
        assert!(ms.len() > s.len() / (w + 1), "too few minimizers");
        let output = (ms.capacity() * size_of::<Minimizer>()) as isize;
        assert!(
            peak <= output + SCRATCH_BYTES,
            "minimizers(w={w}, k={k}) peaked at {peak} live bytes over a {output}-byte output"
        );
    }
}

#[test]
fn the_index_build_holds_the_reference_and_a_quarter_more_than_the_index() {
    let mut reference = Reference::new();
    reference.push("chrA", mixed_seq(800_000, 3));
    reference.push("chrB", mixed_seq(400_000, 5));
    // The reference is live before the build starts, so the peak the
    // build adds is the index and its transient alone.
    let (idx, peak) = peak_added(|| ShardedIndex::build(reference, 2, 256));
    let m = idx.metrics();
    assert!(m.distinct_minimizers > 200_000, "{m:?}");
    let bound = (m.index_bytes + m.index_bytes / 4) as isize + SCRATCH_BYTES;
    assert!(
        peak <= bound,
        "the build peaked at {peak} live bytes beside the reference; the index holds {} \
         (bound {bound})",
        m.index_bytes
    );
}

/// Live bytes one anchor may cost while its read is chained: the
/// anchor, its key, score, predecessor, peel slot and claim, and a
/// chain, in `Vec`s that may have doubled.
const BYTES_PER_ANCHOR: isize = 256;

#[test]
fn mapping_a_read_holds_nothing_per_contig() {
    const CONTIGS: usize = 20_000;
    let genome = mixed_seq(CONTIGS * 60, 9);
    let mut reference = Reference::new();
    for c in 0..CONTIGS {
        reference.push(&format!("c{c}"), genome.slice(c * 60, 60));
    }
    let idx = ShardedIndex::build(reference, 2, 256);
    let read = genome.slice(12_345 * 60, 60);
    let params = ChainParams::default();
    // The first call fills the chainer's 64 KiB table of logarithms.
    let warm = idx.chains_for_read(&read, &params);
    let (chains, peak) = peak_added(|| idx.chains_for_read(&read, &params));
    assert_eq!(chains, warm);
    assert_eq!(chains.first().map(|(c, _)| *c), Some(12_345), "{chains:?}");
    let anchors = idx.collect_anchors(&read).len() as isize;
    let bound = SCRATCH_BYTES + BYTES_PER_ANCHOR * anchors;
    assert!(
        peak <= bound,
        "chaining a read of {anchors} anchors over {CONTIGS} contigs peaked at {peak} live \
         bytes (bound {bound})"
    );
}
