//! The device model, pinned: simulator counters, occupancy and shared
//! bytes of one fixed batch under three kernel flavours, as literals.
//! Modelled device time is a pure function of these
//! counters, so a refactor that moves it fails here rather than only
//! in `genasm-bench compare`.

use align_core::{AlignTask, Base, Seq};
use genasm_core::{GenAsmConfig, Improvements};
use genasm_gpu::GpuAligner;
use gpu_sim::{BlockCounters, Device};

/// xorshift64: the batch must not depend on any crate's RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A 400-base query and a copy with one edit (substitution, insertion
/// or deletion) every `period` bases; `period == 0` is an exact copy.
fn pair(rng: &mut Rng, period: usize) -> (Seq, Seq) {
    let q: Vec<Base> = (0..400)
        .map(|_| Base::from_code((rng.next() % 4) as u8))
        .collect();
    let mut t = Vec::with_capacity(q.len() + 32);
    for (i, &b) in q.iter().enumerate() {
        if period == 0 || i % period != period / 2 {
            t.push(b);
            continue;
        }
        match rng.next() % 3 {
            0 => t.push(Base::from_code((b.code() + 1) % 4)),
            1 => t.extend([b, Base::from_code((rng.next() % 4) as u8)]),
            _ => {}
        }
    }
    (q.into_iter().collect(), t.into_iter().collect())
}

fn repeat(base: Base, n: usize) -> Seq {
    std::iter::repeat_n(base, n).collect()
}

/// Exact / ~5% / ~10% / ~25% error pairs; one all-mismatch pair of two
/// windows; one all-mismatch single window whose `d*` outgrows the
/// static shared table and spills.
fn batch() -> Vec<AlignTask> {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut pairs: Vec<(Seq, Seq)> = [0, 20, 10, 4].map(|p| pair(&mut rng, p)).into();
    pairs.push((repeat(Base::A, 100), repeat(Base::T, 100)));
    pairs.push((repeat(Base::A, 64), repeat(Base::T, 64)));
    pairs
        .into_iter()
        .enumerate()
        .map(|(id, (q, t))| AlignTask::new(id as u32, 0, q, t))
        .collect()
}

struct Pinned {
    totals: BlockCounters,
    blocks_per_sm: usize,
    shared_bytes: usize,
}

fn check(cfg: GenAsmConfig, want: Pinned) {
    let report = GpuAligner::with_config(Device::a6000(), cfg)
        .align_batch(&batch())
        .unwrap();
    assert_eq!(report.totals, want.totals, "{}", cfg.improvements.label());
    assert_eq!(report.timing.blocks_per_sm, want.blocks_per_sm);
    assert_eq!(report.shared_bytes, want.shared_bytes);
}

#[test]
fn improved_kernel_counters_are_pinned() {
    check(
        GenAsmConfig::improved(),
        Pinned {
            totals: BlockCounters {
                phases: 6376,
                thread_steps: 45447,
                warp_steps: 6376,
                extra_warp_cycles: 189500,
                shared_loads: 130931,
                shared_stores: 77256,
                global_loads: 209,
                global_stores: 7994,
                global_bytes: 67477,
            },
            blocks_per_sm: 4,
            shared_bytes: 22536,
        },
    );
}

#[test]
fn baseline_kernel_counters_are_pinned() {
    check(
        GenAsmConfig::baseline(),
        Pinned {
            totals: BlockCounters {
                phases: 26445,
                thread_steps: 173333,
                warp_steps: 26445,
                extra_warp_cycles: 590880,
                shared_loads: 508991,
                shared_stores: 197284,
                global_loads: 2362,
                global_stores: 693160,
                global_bytes: 5566029,
            },
            blocks_per_sm: 16,
            shared_bytes: 1216,
        },
    );
}

#[test]
fn compress_and_dent_without_early_termination_counters_are_pinned() {
    let cfg = GenAsmConfig {
        improvements: Improvements {
            early_term: false,
            ..Improvements::ALL
        },
        ..GenAsmConfig::improved()
    };
    check(
        cfg,
        Pinned {
            totals: BlockCounters {
                phases: 28220,
                thread_steps: 185797,
                warp_steps: 28220,
                extra_warp_cycles: 626380,
                shared_loads: 546963,
                shared_stores: 324975,
                global_loads: 352,
                global_stores: 16770,
                global_bytes: 138829,
            },
            blocks_per_sm: 4,
            shared_bytes: 22536,
        },
    );
}
