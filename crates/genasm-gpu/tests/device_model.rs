//! The device model, pinned: simulator counters, occupancy and shared
//! bytes of one fixed batch under three kernel flavours, as literals
//! captured at the commit before the window pipeline was shared with
//! the CPU engine. Modelled device time is a pure function of these
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

/// Exact / ~5% / ~10% / ~25% error pairs, each unhinted, hint 3 and
/// hint 20; one all-mismatch rescue; one all-mismatch single window
/// whose `d*` outgrows the static shared table and spills.
fn batch() -> Vec<AlignTask> {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut tasks = Vec::new();
    for period in [0, 20, 10, 4] {
        let (q, t) = pair(&mut rng, period);
        for hint in [None, Some(3), Some(20)] {
            let task = AlignTask::new(tasks.len() as u32, 0, q.clone(), t.clone());
            tasks.push(match hint {
                Some(h) => task.with_edit_bound(h),
                None => task,
            });
        }
    }
    let id = tasks.len() as u32;
    tasks
        .push(AlignTask::new(id, 0, repeat(Base::A, 100), repeat(Base::T, 100)).with_edit_bound(1));
    tasks.push(AlignTask::new(
        id + 1,
        0,
        repeat(Base::A, 64),
        repeat(Base::T, 64),
    ));
    tasks
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
                phases: 14418,
                thread_steps: 101369,
                warp_steps: 14418,
                extra_warp_cycles: 463380,
                shared_loads: 289923,
                shared_stores: 176926,
                global_loads: 371,
                global_stores: 7994,
                global_bytes: 72351,
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
                phases: 45015,
                thread_steps: 283625,
                warp_steps: 45015,
                extra_warp_cycles: 1075320,
                shared_loads: 825985,
                shared_stores: 324482,
                global_loads: 6418,
                global_stores: 1134008,
                global_bytes: 9128839,
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
                phases: 47147,
                thread_steps: 298553,
                warp_steps: 47147,
                extra_warp_cycles: 1117960,
                shared_loads: 874479,
                shared_stores: 527915,
                global_loads: 565,
                global_stores: 19630,
                global_bytes: 166991,
            },
            blocks_per_sm: 4,
            shared_bytes: 22536,
        },
    );
}
