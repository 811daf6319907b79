//! Batch alignment on the simulated A6000: improved vs unimproved
//! GenASM kernels, with the traffic and timing breakdown that drives
//! the paper's GPU claims.
//!
//! ```text
//! cargo run --release --example gpu_batch
//! ```

use genasm_gpu::GpuAligner;
use genasm_suite::workload::mutated_tasks;
use gpu_sim::Device;

fn main() {
    let tasks = mutated_tasks(64, 2_000, 0.10, 2022);
    println!("batch: {} pairs of ~2 kbp at 10% error\n", tasks.len());

    let device = Device::a6000();
    println!("device: {}", device.desc.name);
    println!(
        "  SMs: {}, shared/block: {} KiB, DRAM: {} GB/s\n",
        device.desc.sm_count,
        device.desc.shared_mem_per_block / 1024,
        device.desc.dram_bandwidth_gbps
    );

    for (label, gpu) in [
        ("improved  ", GpuAligner::improved(device.clone())),
        ("unimproved", GpuAligner::baseline(device.clone())),
    ] {
        let report = gpu.align_batch(&tasks).expect("launch");
        let total_dist: usize = report
            .results
            .iter()
            .map(|r| r.alignment.edit_distance)
            .sum();
        println!("kernel {label}:");
        println!("  shared memory/block : {} KiB", report.shared_bytes / 1024);
        println!(
            "  occupancy           : {} blocks/SM",
            report.timing.blocks_per_sm
        );
        println!(
            "  global traffic      : {:.2} MiB",
            report.totals.global_bytes as f64 / 1048576.0
        );
        println!("  modeled time        : {:.3} ms", report.timing.total_ms);
        println!(
            "    compute {:.3} ms / bandwidth {:.3} ms / latency {:.3} ms",
            report.timing.compute_ms, report.timing.bandwidth_ms, report.timing.latency_ms
        );
        println!("  total edit distance : {total_dist}");
        println!();
    }

    // The two kernels must agree bit-for-bit on the alignments.
    let a = GpuAligner::improved(device.clone())
        .align_batch(&tasks)
        .unwrap();
    let b = GpuAligner::baseline(device).align_batch(&tasks).unwrap();
    assert!(a
        .results
        .iter()
        .zip(&b.results)
        .all(|(x, y)| x.alignment.cigar == y.alignment.cigar));
    println!("improved and unimproved kernels agree on all alignments ✓");
}
