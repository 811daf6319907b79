//! Per-block execution context: SIMT phases, shared memory, global
//! scratch, and instrumentation counters.
//!
//! Kernels are written in *barrier-phase style*: a block's work is a
//! sequence of [`BlockCtx::phase`] calls; within a phase every active
//! thread runs the same closure (our sequential stand-in for lockstep
//! SIMT execution), and consecutive phases are separated by an implicit
//! `__syncthreads()`. This keeps kernels deterministic while the
//! counters capture exactly the quantities the timing model needs:
//! warp-steps of compute, shared-memory traffic, and global traffic.
//!
//! A kernel whose schedule is a known shape may instead compute its
//! values however the host computes them fastest and *book* what the
//! device would have done: [`BlockCtx::book_phases`] for the phases,
//! [`BlockCtx::book_shared`] / [`BlockCtx::book_global`] for the
//! traffic. Booking and counting feed the same [`BlockCounters`] (a
//! phase books itself through [`BlockCtx::book_phase`]), so the timing
//! model cannot tell them apart. Only such a kernel may write a buffer
//! through the uncounted [`SharedBuf::words_mut`] /
//! [`GlobalBuf::words_mut`], and it must book every word it models as
//! moved; everything else goes through the counted accessors.

use crate::error::SimError;

/// Instrumentation accumulated by one block (and merged across blocks
/// by the launcher).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct BlockCounters {
    /// Number of barrier-separated phases executed.
    pub phases: u64,
    /// Total thread activations (Σ active threads over phases).
    pub thread_steps: u64,
    /// Total warp activations (Σ ⌈active/warp_size⌉ per phase step).
    pub warp_steps: u64,
    /// Explicitly charged extra compute, in warp-cycles.
    pub extra_warp_cycles: u64,
    /// Shared-memory word loads.
    pub shared_loads: u64,
    /// Shared-memory word stores.
    pub shared_stores: u64,
    /// Global-memory word loads.
    pub global_loads: u64,
    /// Global-memory word stores.
    pub global_stores: u64,
    /// Global-memory bytes moved (both directions).
    pub global_bytes: u64,
}

impl BlockCounters {
    /// Merge another block's counters into this one.
    pub fn merge(&mut self, o: &BlockCounters) {
        self.phases += o.phases;
        self.thread_steps += o.thread_steps;
        self.warp_steps += o.warp_steps;
        self.extra_warp_cycles += o.extra_warp_cycles;
        self.shared_loads += o.shared_loads;
        self.shared_stores += o.shared_stores;
        self.global_loads += o.global_loads;
        self.global_stores += o.global_stores;
        self.global_bytes += o.global_bytes;
    }

    /// Total shared accesses.
    pub fn shared_accesses(&self) -> u64 {
        self.shared_loads + self.shared_stores
    }

    /// Total global accesses.
    pub fn global_accesses(&self) -> u64 {
        self.global_loads + self.global_stores
    }
}

/// A capacity-checked shared-memory buffer of 64-bit words.
///
/// Created through [`BlockCtx::shared_alloc`]; accesses go through
/// the context so they are counted.
#[derive(Debug)]
pub struct SharedBuf {
    data: Vec<u64>,
}

impl SharedBuf {
    /// Number of words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// The words, uncounted: the caller books the traffic it models
    /// with [`BlockCtx::book_shared`].
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// True when the buffer has no words.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A global-memory scratch buffer of 64-bit words (the unimproved
/// GenASM kernel spills its DP table here). Accesses are counted as
/// DRAM traffic.
#[derive(Debug)]
pub struct GlobalBuf {
    data: Vec<u64>,
}

impl GlobalBuf {
    /// Number of words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// The words, uncounted: the caller books the traffic it models
    /// with [`BlockCtx::book_global`].
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// True when the buffer has no words.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Execution context of one thread block.
#[derive(Debug)]
pub struct BlockCtx {
    /// Index of this block in the grid.
    pub block_idx: usize,
    /// Number of blocks in the grid.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    warp_size: usize,
    shared_budget: usize,
    shared_used: usize,
    counters: BlockCounters,
}

impl BlockCtx {
    pub(crate) fn new(
        block_idx: usize,
        grid_dim: usize,
        block_dim: usize,
        warp_size: usize,
        shared_budget: usize,
    ) -> BlockCtx {
        BlockCtx {
            block_idx,
            grid_dim,
            block_dim,
            warp_size,
            shared_budget,
            shared_used: 0,
            counters: BlockCounters::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> BlockCounters {
        self.counters
    }

    pub(crate) fn into_counters(self) -> BlockCounters {
        self.counters
    }

    /// Shared memory still available, bytes.
    pub fn shared_remaining(&self) -> usize {
        self.shared_budget - self.shared_used
    }

    /// Allocate `words` 64-bit words of shared memory.
    ///
    /// Fails with [`SimError::SharedMemoryExceeded`] when the block's
    /// budget is exhausted — this is the capacity constraint that forces
    /// the unimproved GenASM kernel into global memory.
    pub fn shared_alloc(&mut self, words: usize) -> Result<SharedBuf, SimError> {
        let bytes = words * 8;
        if self.shared_used + bytes > self.shared_budget {
            return Err(SimError::SharedMemoryExceeded {
                requested: bytes,
                used: self.shared_used,
                budget: self.shared_budget,
            });
        }
        self.shared_used += bytes;
        Ok(SharedBuf {
            data: vec![0; words],
        })
    }

    /// Allocate a global-memory scratch buffer (no capacity limit; DRAM
    /// is big — it is just slow, which the counters capture).
    pub fn global_alloc(&mut self, words: usize) -> GlobalBuf {
        // Allocation itself is free; traffic is charged per access.
        GlobalBuf {
            data: vec![0; words],
        }
    }

    /// Load one word from shared memory.
    #[inline]
    pub fn sh_load(&mut self, buf: &SharedBuf, idx: usize) -> u64 {
        self.counters.shared_loads += 1;
        buf.data[idx]
    }

    /// Store one word to shared memory.
    #[inline]
    pub fn sh_store(&mut self, buf: &mut SharedBuf, idx: usize, val: u64) {
        self.counters.shared_stores += 1;
        buf.data[idx] = val;
    }

    /// Load one word from global memory.
    #[inline]
    pub fn gl_load(&mut self, buf: &GlobalBuf, idx: usize) -> u64 {
        self.counters.global_loads += 1;
        self.counters.global_bytes += 8;
        buf.data[idx]
    }

    /// Store one word to global memory.
    #[inline]
    pub fn gl_store(&mut self, buf: &mut GlobalBuf, idx: usize, val: u64) {
        self.counters.global_stores += 1;
        self.counters.global_bytes += 8;
        buf.data[idx] = val;
    }

    /// Book `loads` and `stores` shared-memory words, as that many
    /// [`sh_load`](Self::sh_load)s and [`sh_store`](Self::sh_store)s
    /// would count them.
    #[inline]
    pub fn book_shared(&mut self, loads: u64, stores: u64) {
        self.counters.shared_loads += loads;
        self.counters.shared_stores += stores;
    }

    /// Book `loads` and `stores` global-memory words, 8 bytes each, as
    /// that many [`gl_load`](Self::gl_load)s and
    /// [`gl_store`](Self::gl_store)s would count them.
    #[inline]
    pub fn book_global(&mut self, loads: u64, stores: u64) {
        self.counters.global_loads += loads;
        self.counters.global_stores += stores;
        self.counters.global_bytes += 8 * (loads + stores);
    }

    /// Charge a streaming global transfer (e.g. loading the sequence
    /// windows at kernel start, writing results at the end).
    pub fn charge_global_stream(&mut self, bytes: u64) {
        self.counters.global_bytes += bytes;
        // Streamed transfers are coalesced: count one access per 32B.
        self.counters.global_loads += bytes.div_ceil(32);
    }

    /// Charge extra compute work, in warp-cycles (for modeled
    /// instructions that have no memory side effect).
    pub fn charge_warp_cycles(&mut self, cycles: u64) {
        self.counters.extra_warp_cycles += cycles;
    }

    /// Run one SIMT phase: every thread in `active` executes `f(tid,
    /// ctx)`. Consecutive phases are separated by an implicit barrier.
    ///
    /// # Panics
    /// Panics if `active` exceeds the block's thread count — that is a
    /// kernel bug, not a data condition.
    pub fn phase<F: FnMut(usize, &mut BlockCtx)>(
        &mut self,
        active: std::ops::Range<usize>,
        mut f: F,
    ) {
        assert!(
            active.end <= self.block_dim,
            "phase activates thread {} but block has {} threads",
            active.end,
            self.block_dim
        );
        self.book_phase(active.len());
        for tid in active {
            f(tid, self);
        }
    }

    /// Book one phase of `active` threads without running it.
    #[inline]
    pub fn book_phase(&mut self, active: usize) {
        self.book_phases(active, 1);
    }

    /// Book `count` phases of `active` threads each without running
    /// them.
    ///
    /// # Panics
    /// Panics if `active` exceeds the block's thread count.
    #[inline]
    pub fn book_phases(&mut self, active: usize, count: u64) {
        assert!(
            active <= self.block_dim,
            "phase activates thread {active} but block has {} threads",
            self.block_dim
        );
        let active = active as u64;
        self.counters.phases += count;
        self.counters.thread_steps += active * count;
        self.counters.warp_steps += active.div_ceil(self.warp_size as u64) * count;
    }

    /// A single-thread phase (e.g. the traceback walk).
    pub fn serial_phase<F: FnOnce(&mut BlockCtx)>(&mut self, f: F) {
        self.counters.phases += 1;
        self.counters.thread_steps += 1;
        self.counters.warp_steps += 1;
        f(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(shared: usize) -> BlockCtx {
        BlockCtx::new(0, 1, 64, 32, shared)
    }

    #[test]
    fn shared_alloc_respects_budget() {
        let mut c = ctx(1024);
        let a = c.shared_alloc(100).unwrap(); // 800 bytes
        assert_eq!(a.len(), 100);
        assert_eq!(c.shared_remaining(), 224);
        let err = c.shared_alloc(100).unwrap_err();
        match err {
            SimError::SharedMemoryExceeded {
                requested,
                used,
                budget,
            } => {
                assert_eq!(requested, 800);
                assert_eq!(used, 800);
                assert_eq!(budget, 1024);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A smaller allocation still fits.
        assert!(c.shared_alloc(28).is_ok());
    }

    #[test]
    fn memory_accesses_are_counted() {
        let mut c = ctx(4096);
        let mut sh = c.shared_alloc(8).unwrap();
        c.sh_store(&mut sh, 3, 42);
        assert_eq!(c.sh_load(&sh, 3), 42);
        let mut gl = c.global_alloc(8);
        c.gl_store(&mut gl, 0, 7);
        assert_eq!(c.gl_load(&gl, 0), 7);
        let k = c.counters();
        assert_eq!(k.shared_stores, 1);
        assert_eq!(k.shared_loads, 1);
        assert_eq!(k.global_stores, 1);
        assert_eq!(k.global_loads, 1);
        assert_eq!(k.global_bytes, 16);
    }

    #[test]
    fn phase_counts_warps() {
        let mut c = ctx(0);
        c.phase(0..64, |_tid, _c| {});
        let k = c.counters();
        assert_eq!(k.phases, 1);
        assert_eq!(k.thread_steps, 64);
        assert_eq!(k.warp_steps, 2); // 64 threads / 32-wide warps

        c.phase(0..33, |_tid, _c| {});
        assert_eq!(c.counters().warp_steps, 4); // +2 (33 -> 2 warps)
    }

    #[test]
    fn phase_threads_run_in_order() {
        let mut c = ctx(0);
        let mut seen = Vec::new();
        c.phase(2..6, |tid, _| seen.push(tid));
        assert_eq!(seen, vec![2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "phase activates thread")]
    fn oversized_phase_panics() {
        let mut c = ctx(0);
        c.phase(0..65, |_, _| {});
    }

    #[test]
    fn booking_equals_counting() {
        // Per thread: two shared loads, one shared store, one global
        // load and two global stores.
        let shapes = [1, 5, 32, 33, 64];
        let mut counted = ctx(4096);
        let mut sh = counted.shared_alloc(64).unwrap();
        let mut gl = counted.global_alloc(128);
        for &active in &shapes {
            counted.phase(0..active, |tid, c| {
                let v = c.sh_load(&sh, tid) + c.sh_load(&sh, 63 - tid);
                c.sh_store(&mut sh, tid, v);
                let g = c.gl_load(&gl, tid);
                c.gl_store(&mut gl, tid, g + v);
                c.gl_store(&mut gl, 64 + tid, g);
            });
        }
        let mut booked = ctx(4096);
        for &active in &shapes {
            booked.book_phase(active);
            let n = active as u64;
            booked.book_shared(2 * n, n);
            booked.book_global(n, 2 * n);
        }
        assert_eq!(booked.counters(), counted.counters());

        // `count` phases at once book as `count` single phases.
        let mut single = ctx(0);
        let mut batched = ctx(0);
        for &active in &shapes {
            for _ in 0..3 {
                single.book_phase(active);
            }
            batched.book_phases(active, 3);
        }
        assert_eq!(batched.counters(), single.counters());
        assert_eq!(batched.counters().warp_steps, 3 * (1 + 1 + 1 + 2 + 2));
    }

    #[test]
    #[should_panic(expected = "phase activates thread")]
    fn oversized_booked_phase_panics() {
        ctx(0).book_phase(65);
    }

    #[test]
    fn stream_charge_is_coalesced() {
        let mut c = ctx(0);
        c.charge_global_stream(100);
        let k = c.counters();
        assert_eq!(k.global_bytes, 100);
        assert_eq!(k.global_loads, 4); // ceil(100/32)
    }

    #[test]
    fn counters_merge() {
        let mut a = BlockCounters {
            phases: 1,
            warp_steps: 2,
            ..Default::default()
        };
        let b = BlockCounters {
            phases: 3,
            warp_steps: 5,
            global_bytes: 64,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.phases, 4);
        assert_eq!(a.warp_steps, 7);
        assert_eq!(a.global_bytes, 64);
    }
}
