//! Experiments E4–E7: GPU speedups.
//!
//! Paper (Section II): "Our GPU implementation achieves a 4.1×, 62×,
//! 7.2×, and 5.9× speedup over our CPU implementation, KSW2, Edlib,
//! and a GPU implementation of GenASM without our improvements,
//! respectively."
//!
//! The GPU here is the `gpu-sim` substrate configured as an RTX A6000;
//! its times are *model estimates* (`gpu_sim::timing`). The CPU numbers are
//! wall-clock on the host. Because the simulator executes kernels
//! functionally, the GPU batch is a capped prefix of the candidate set;
//! per-alignment throughput is what the ratios use.

use align_core::AlignTask;
use baselines::{Ksw2Aligner, MyersAligner};
use genasm_core::GenAsmConfig;
use genasm_cpu::{align_batch_genasm, align_batch_with};
use genasm_gpu::GpuAligner;
use gpu_sim::Device;

use crate::report::{f, x, Table};

/// Measured outcome of the GPU comparison.
#[derive(Debug, Clone)]
pub struct GpuResults {
    /// Tasks in the GPU batch.
    pub tasks: usize,
    /// Modeled improved-kernel time (ms).
    pub gpu_improved_ms: f64,
    /// Modeled unimproved-kernel time (ms).
    pub gpu_baseline_ms: f64,
    /// Host wall times on the same subset (ms): improved CPU, KSW2, Edlib.
    pub cpu_improved_ms: f64,
    pub ksw2_ms: f64,
    pub edlib_ms: f64,
    /// Global bytes moved by each kernel.
    pub improved_global_bytes: u64,
    pub baseline_global_bytes: u64,
    /// E4/E5/E6/E7 ratios.
    pub vs_cpu: f64,
    pub vs_ksw2: f64,
    pub vs_edlib: f64,
    pub vs_gpu_baseline: f64,
}

/// Run the GPU kernels and the CPU contenders on the same task subset.
pub fn run(tasks: &[AlignTask]) -> GpuResults {
    let device = Device::a6000();
    let gpu_imp = GpuAligner::improved(device.clone());
    let gpu_base = GpuAligner::baseline(device);

    let ri = gpu_imp.align_batch(tasks).expect("improved kernel");
    let rb = gpu_base.align_batch(tasks).expect("baseline kernel");
    // Cross-check: identical alignments.
    for (a, b) in ri.results.iter().zip(&rb.results) {
        assert_eq!(
            a.alignment.edit_distance, b.alignment.edit_distance,
            "GPU kernels disagree"
        );
    }

    let cpu = align_batch_genasm(tasks, &GenAsmConfig::improved());
    let ksw2 = align_batch_with(tasks, &Ksw2Aligner::new());
    let edlib = align_batch_with(tasks, &MyersAligner::new());

    let gpu_improved_ms = ri.timing.total_ms;
    let gpu_baseline_ms = rb.timing.total_ms;
    let cpu_improved_ms = cpu.timing.wall.as_secs_f64() * 1e3;
    let ksw2_ms = ksw2.timing.wall.as_secs_f64() * 1e3;
    let edlib_ms = edlib.timing.wall.as_secs_f64() * 1e3;

    GpuResults {
        tasks: tasks.len(),
        gpu_improved_ms,
        gpu_baseline_ms,
        cpu_improved_ms,
        ksw2_ms,
        edlib_ms,
        improved_global_bytes: ri.totals.global_bytes,
        baseline_global_bytes: rb.totals.global_bytes,
        vs_cpu: cpu_improved_ms / gpu_improved_ms,
        vs_ksw2: ksw2_ms / gpu_improved_ms,
        vs_edlib: edlib_ms / gpu_improved_ms,
        vs_gpu_baseline: gpu_baseline_ms / gpu_improved_ms,
    }
}

/// Render the E4–E7 tables.
pub fn report(res: &GpuResults) -> String {
    let mut t = Table::new(
        &format!(
            "GPU vs CPU on {} candidate pairs (GPU = A6000 model estimate)",
            res.tasks
        ),
        &["contender", "time ms", "global traffic"],
    );
    t.row(&[
        "gpu genasm-improved".into(),
        f(res.gpu_improved_ms),
        crate::report::bytes(res.improved_global_bytes as f64),
    ]);
    t.row(&[
        "gpu genasm-unimproved".into(),
        f(res.gpu_baseline_ms),
        crate::report::bytes(res.baseline_global_bytes as f64),
    ]);
    t.row(&[
        "cpu genasm-improved".into(),
        f(res.cpu_improved_ms),
        "-".into(),
    ]);
    t.row(&["cpu ksw2".into(), f(res.ksw2_ms), "-".into()]);
    t.row(&["cpu edlib".into(), f(res.edlib_ms), "-".into()]);
    let mut s = t.render();

    // The paper's CPU numbers come from a 48-thread dual-socket Xeon;
    // this host has `host_threads`. Speedups over CPU baselines are
    // therefore also shown normalized to a 48-thread CPU (assuming the
    // embarrassingly-parallel batch scales linearly, which it does in
    // the paper). E7 compares two modeled kernels and needs no
    // adjustment.
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as f64;
    let norm = host_threads / 48.0;
    let mut t2 = Table::new(
        &format!(
            "E4-E7: improved GenASM GPU speedups (paper vs measured; host has {host_threads} thread(s), paper CPU had 48)"
        ),
        &["exp", "speedup over", "paper", "measured", "measured (48-thread-CPU adjusted)"],
    );
    t2.row(&[
        "E4".into(),
        "cpu genasm-improved".into(),
        "4.1x".into(),
        x(res.vs_cpu),
        x(res.vs_cpu * norm),
    ]);
    t2.row(&[
        "E5".into(),
        "cpu ksw2".into(),
        "62x".into(),
        x(res.vs_ksw2),
        x(res.vs_ksw2 * norm),
    ]);
    t2.row(&[
        "E6".into(),
        "cpu edlib".into(),
        "7.2x".into(),
        x(res.vs_edlib),
        x(res.vs_edlib * norm),
    ]);
    t2.row(&[
        "E7".into(),
        "gpu genasm-unimproved".into(),
        "5.9x".into(),
        x(res.vs_gpu_baseline),
        x(res.vs_gpu_baseline),
    ]);
    s.push('\n');
    s.push_str(&t2.render());
    s
}
