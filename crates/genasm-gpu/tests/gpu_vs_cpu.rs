//! Property tests: the GPU kernels are bit-identical to the CPU
//! implementation for every improvement combination — the CIGAR and
//! the window/band counters both engines book through the same
//! `MemStats` methods — and the improved kernel's working set stays
//! on-chip.

use align_core::{AlignTask, Alignment, Base, Seq};
use genasm_core::{AlignWorkspace, GenAsmConfig, Improvements, MemStats};
use genasm_gpu::{GpuAligner, GpuAlignment};
use gpu_sim::{Device, DeviceDescriptor};
use proptest::prelude::*;

fn arb_mutated_pair(max_len: usize, max_edits: usize) -> impl Strategy<Value = (Seq, Seq)> {
    (
        prop::collection::vec(0u8..4, 1..=max_len),
        prop::collection::vec((any::<u8>(), any::<u16>(), 0u8..4), 0..=max_edits),
    )
        .prop_map(|(codes, edits)| {
            let q: Seq = codes.iter().map(|&c| Base::from_code(c)).collect();
            let mut t: Vec<Base> = q.iter().collect();
            for (kind, pos, code) in edits {
                if t.is_empty() {
                    break;
                }
                let pos = pos as usize % t.len();
                match kind % 3 {
                    0 => t[pos] = Base::from_code(code),
                    1 => t.insert(pos, Base::from_code(code)),
                    _ => {
                        t.remove(pos);
                    }
                }
            }
            if t.is_empty() {
                t.push(Base::A);
            }
            (q, t.into_iter().collect())
        })
}

fn device() -> Device {
    Device::a6000()
}

/// The counters that describe the window pipeline rather than one
/// engine's memory traffic.
fn band_counters(s: &MemStats) -> [u64; 5] {
    [
        s.windows,
        s.rows_computed,
        s.windows_early_terminated,
        s.band_cells_skipped,
        s.peak_band_rows,
    ]
}

/// One pair through one simulated block and through the CPU engine.
fn both(q: &Seq, t: &Seq, cfg: &GenAsmConfig) -> (GpuAlignment, Alignment, MemStats) {
    let task = AlignTask::new(0, 0, q.clone(), t.clone());
    let gpu = GpuAligner::with_config(device(), *cfg);
    let report = gpu.align_batch(&[task]).unwrap();
    let mut ws = AlignWorkspace::new();
    let cpu = genasm_core::align_with_workspace(q, t, cfg, &mut ws).unwrap();
    (report.results.into_iter().next().unwrap(), cpu, ws.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gpu_improved_equals_cpu((q, t) in arb_mutated_pair(300, 20)) {
        let (gpu, cpu, stats) = both(&q, &t, &GenAsmConfig::improved());
        prop_assert_eq!(&gpu.alignment.cigar, &cpu.cigar);
        prop_assert_eq!(band_counters(&gpu.stats), band_counters(&stats));
        gpu.alignment.check(&q, &t).unwrap();
    }

    #[test]
    fn gpu_baseline_equals_cpu((q, t) in arb_mutated_pair(220, 14)) {
        let (gpu, cpu, stats) = both(&q, &t, &GenAsmConfig::baseline());
        prop_assert_eq!(&gpu.alignment.cigar, &cpu.cigar);
        prop_assert_eq!(band_counters(&gpu.stats), band_counters(&stats));
    }

    #[test]
    fn gpu_all_improvement_combinations_equal_cpu((q, t) in arb_mutated_pair(150, 10)) {
        for improvements in Improvements::all_combinations() {
            let cfg = GenAsmConfig { improvements, ..GenAsmConfig::improved() };
            let (gpu, cpu, stats) = both(&q, &t, &cfg);
            prop_assert_eq!(&gpu.alignment.cigar, &cpu.cigar,
                "combination {} diverged on GPU", improvements.label());
            prop_assert_eq!(band_counters(&gpu.stats), band_counters(&stats),
                "combination {} counts differently on GPU", improvements.label());
        }
    }

    #[test]
    fn improved_kernel_never_spills_on_nonfinal_windows((q, t) in arb_mutated_pair(400, 10)) {
        // Low-error pairs: the final window's d* is small, so even it
        // fits the static table; expect zero spills.
        let gpu = GpuAligner::improved(device());
        let tasks = vec![AlignTask::new(0, 0, q.clone(), t.clone())];
        let report = gpu.align_batch(&tasks).unwrap();
        prop_assert_eq!(report.results[0].spilled_windows, 0,
            "low-error alignment should stay on-chip");
    }

    #[test]
    fn batch_outputs_in_task_order(pairs in prop::collection::vec(arb_mutated_pair(120, 6), 1..8)) {
        let gpu = GpuAligner::improved(device());
        let tasks: Vec<AlignTask> = pairs
            .iter()
            .enumerate()
            .map(|(i, (q, t))| AlignTask::new(i as u32, 0, q.clone(), t.clone()))
            .collect();
        let report = gpu.align_batch(&tasks).unwrap();
        for (task, res) in tasks.iter().zip(&report.results) {
            res.alignment.check(&task.query, &task.target).unwrap();
        }
    }
}

#[test]
fn tiny_device_rejects_improved_kernel_shared_usage() {
    // The improved kernel's table cannot fit a 2 KB shared budget; the
    // launch must fail cleanly rather than silently spill.
    let dev = Device::new(DeviceDescriptor::tiny());
    let gpu = GpuAligner::improved(dev);
    let q = Seq::from_ascii(b"ACGTACGT").unwrap();
    let err = gpu
        .align_batch(&[AlignTask::new(0, 0, q.clone(), q)])
        .unwrap_err();
    assert!(matches!(err, gpu_sim::SimError::InvalidLaunch { .. }));
}

#[test]
fn high_error_final_window_spills_to_global() {
    // An all-mismatch final window drives d* to the maximum, exceeding
    // the static shared table (sized for keep+1 columns), so the kernel
    // must spill that window to global memory and still be correct.
    let gpu = GpuAligner::improved(Device::a6000());
    let q = Seq::from_ascii("A".repeat(64).as_bytes()).unwrap();
    let t = Seq::from_ascii("T".repeat(64).as_bytes()).unwrap();
    let tasks = vec![AlignTask::new(0, 0, q.clone(), t.clone())];
    let report = gpu.align_batch(&tasks).unwrap();
    report.results[0].alignment.check(&q, &t).unwrap();
    assert_eq!(report.results[0].spilled_windows, 1);
}
