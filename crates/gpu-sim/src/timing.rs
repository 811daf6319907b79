//! Analytic timing model.
//!
//! The estimate combines three classical components, all fed by the
//! instrumented counters:
//!
//! 1. **compute / issue throughput** — every phase-step of every warp
//!    costs one issue slot; an SM retires `issue_width` warp
//!    instructions per cycle, and shared-memory accesses share the
//!    SM's `shared_ports` pipes;
//! 2. **DRAM bandwidth** — total global bytes over the device
//!    bandwidth (the roofline's memory side);
//! 3. **DRAM latency** — per-block global accesses pay the average
//!    latency divided by the assumed memory-level parallelism; this is
//!    what punishes a working set that does not fit on chip even when
//!    bandwidth is plentiful (the unimproved GenASM's problem).
//!
//! Blocks are spread over the SMs in round-robin launch order with the
//! occupancy the kernel's shared-memory usage permits; the kernel time
//! is `max(compute makespan, bandwidth time) + launch overhead`.
//! Absolute numbers are estimates; the *ratios* between two kernels on
//! the same device are the experimentally meaningful output (the
//! crate docs say what is faithful and what is not).

use crate::ctx::BlockCounters;
use crate::device::DeviceDescriptor;

/// Timing estimate of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingEstimate {
    /// Estimated kernel time in milliseconds.
    pub total_ms: f64,
    /// Compute-side makespan (ms).
    pub compute_ms: f64,
    /// DRAM-bandwidth time (ms).
    pub bandwidth_ms: f64,
    /// Share of per-block cycles spent waiting on DRAM latency (ms,
    /// already folded into `compute_ms`).
    pub latency_ms: f64,
    /// Blocks resident per SM (occupancy actually used).
    pub blocks_per_sm: usize,
}

/// Estimate a launch from per-block counters.
pub fn estimate(
    device: &DeviceDescriptor,
    per_block: &[BlockCounters],
    block_dim: usize,
    shared_bytes_per_block: usize,
) -> TimingEstimate {
    let occupancy = device
        .blocks_per_sm(block_dim, shared_bytes_per_block)
        .max(1);
    let lanes = device.sm_count * occupancy;

    // DRAM latency is hidden both by per-thread memory-level
    // parallelism and by the other blocks resident on the SM (more
    // occupancy = more warps to switch to while a load is in flight).
    let hiding = device.memory_level_parallelism * occupancy as f64;
    // Per-block cycle cost.
    let block_cycles: Vec<f64> = per_block
        .iter()
        .map(|c| {
            let issue = (c.warp_steps + c.extra_warp_cycles) as f64 / device.issue_width as f64;
            let shared = c.shared_accesses() as f64 / device.shared_ports as f64;
            let latency = c.global_accesses() as f64 * device.dram_latency_cycles / hiding;
            issue + shared + latency
        })
        .collect();
    let latency_only: f64 = per_block
        .iter()
        .map(|c| c.global_accesses() as f64 * device.dram_latency_cycles / hiding)
        .sum();

    // Round-robin makespan over SM-resident lanes.
    let mut lane_load = vec![0f64; lanes.max(1)];
    for (i, cyc) in block_cycles.iter().enumerate() {
        lane_load[i % lanes] += cyc;
    }
    let makespan_cycles = lane_load.iter().cloned().fold(0.0, f64::max);
    let hz = device.clock_ghz * 1e9;
    let compute_ms = makespan_cycles / hz * 1e3;
    let latency_ms = (latency_only / lanes as f64) / hz * 1e3;

    let total_bytes: u64 = per_block.iter().map(|c| c.global_bytes).sum();
    let bandwidth_ms = total_bytes as f64 / (device.dram_bandwidth_gbps * 1e9) * 1e3;

    let total_ms = compute_ms.max(bandwidth_ms) + device.launch_overhead_us / 1e3;
    TimingEstimate {
        total_ms,
        compute_ms,
        bandwidth_ms,
        latency_ms,
        blocks_per_sm: occupancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(warp_steps: u64, global_bytes: u64, global_accesses: u64) -> BlockCounters {
        BlockCounters {
            warp_steps,
            global_bytes,
            global_loads: global_accesses,
            ..Default::default()
        }
    }

    #[test]
    fn more_work_takes_longer() {
        let d = DeviceDescriptor::a6000();
        let small = vec![counters(1_000, 0, 0); 100];
        let large = vec![counters(100_000, 0, 0); 100];
        let ts = estimate(&d, &small, 64, 0);
        let tl = estimate(&d, &large, 64, 0);
        assert!(tl.total_ms > ts.total_ms);
    }

    #[test]
    fn bandwidth_bound_kernel() {
        let d = DeviceDescriptor::a6000();
        // Tiny compute, huge traffic: 768 MB at 768 GB/s = 1 ms.
        let blocks = vec![counters(1, 768_000_000 / 84, 0); 84];
        let t = estimate(&d, &blocks, 64, 0);
        assert!((t.bandwidth_ms - 1.0).abs() < 0.05, "{t:?}");
        assert!(t.total_ms >= t.bandwidth_ms);
    }

    #[test]
    fn latency_punishes_global_working_set() {
        let d = DeviceDescriptor::a6000();
        let on_chip = vec![counters(10_000, 0, 0); 840];
        let mut off_chip = on_chip.clone();
        for c in &mut off_chip {
            c.global_loads = 10_000;
            c.global_bytes = 80_000;
        }
        let t_on = estimate(&d, &on_chip, 64, 0);
        let t_off = estimate(&d, &off_chip, 64, 0);
        assert!(
            t_off.total_ms > 5.0 * t_on.total_ms,
            "off-chip {:.4} ms vs on-chip {:.4} ms",
            t_off.total_ms,
            t_on.total_ms
        );
    }

    #[test]
    fn occupancy_reported() {
        let d = DeviceDescriptor::a6000();
        let blocks = vec![counters(100, 0, 0); 10];
        let t = estimate(&d, &blocks, 128, 50 * 1024);
        assert_eq!(t.blocks_per_sm, 2);
    }

    #[test]
    fn launch_overhead_floors_empty_kernels() {
        let d = DeviceDescriptor::a6000();
        let t = estimate(&d, &[], 64, 0);
        assert!((t.total_ms - 0.005).abs() < 1e-9);
    }

    #[test]
    fn more_lanes_shorter_makespan() {
        let d_small = DeviceDescriptor::tiny();
        let mut d_big = DeviceDescriptor::tiny();
        d_big.sm_count = 16;
        let blocks = vec![counters(10_000, 0, 0); 64];
        let t1 = estimate(&d_small, &blocks, 4, 0);
        let t2 = estimate(&d_big, &blocks, 4, 0);
        assert!(t2.compute_ms < t1.compute_ms);
    }
}
