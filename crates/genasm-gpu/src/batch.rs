//! Batch alignment on the simulated GPU.

use align_core::AlignTask;
use genasm_core::GenAsmConfig;
use gpu_sim::{BlockCounters, Device, SimError, TimingEstimate};

use crate::kernel::{shared_bytes_for, GenAsmKernel, GpuAlignment, ROW_GROUP};

/// Result of one GPU batch.
#[derive(Debug)]
pub struct GpuBatchReport {
    /// Per-task alignments, in task order.
    pub results: Vec<GpuAlignment>,
    /// Aggregated simulator counters.
    pub totals: BlockCounters,
    /// Modeled device time.
    pub timing: TimingEstimate,
    /// Host wall-clock spent simulating (not device time).
    pub host_ms: f64,
    /// Shared memory bytes per block used by the launch.
    pub shared_bytes: usize,
}

/// The GPU-side GenASM aligner: a device plus a configuration.
#[derive(Debug, Clone)]
pub struct GpuAligner {
    /// The simulated device.
    pub device: Device,
    /// GenASM configuration (decides the kernel flavour).
    pub cfg: GenAsmConfig,
}

impl GpuAligner {
    /// Improved kernel (all three improvements) on the given device.
    pub fn improved(device: Device) -> GpuAligner {
        GpuAligner {
            device,
            cfg: GenAsmConfig::improved(),
        }
    }

    /// Unimproved GenASM kernel on the given device.
    pub fn baseline(device: Device) -> GpuAligner {
        GpuAligner {
            device,
            cfg: GenAsmConfig::baseline(),
        }
    }

    /// Custom configuration.
    pub fn with_config(device: Device, cfg: GenAsmConfig) -> GpuAligner {
        cfg.validate();
        GpuAligner { device, cfg }
    }

    /// Shared memory per block this configuration will request.
    pub fn shared_bytes(&self) -> usize {
        shared_bytes_for(&self.cfg)
    }

    /// Align a batch of tasks: one block per task. The task slice is
    /// borrowed straight into the kernel — no host-side copy — and each
    /// simulation worker reuses one staging workspace across all the
    /// blocks it executes.
    pub fn align_batch(&self, tasks: &[AlignTask]) -> Result<GpuBatchReport, SimError> {
        let kernel = GenAsmKernel { cfg: self.cfg };
        let shared_bytes = self.shared_bytes();
        let report = self
            .device
            .launch(tasks.len(), ROW_GROUP, shared_bytes, &kernel, tasks)?;
        Ok(GpuBatchReport {
            results: report.outputs,
            totals: report.totals,
            timing: report.timing,
            host_ms: report.host_ms,
            shared_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align_core::Seq;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    fn task(q: &str, t: &str) -> AlignTask {
        AlignTask::new(0, 0, seq(q), seq(t))
    }

    #[test]
    fn improved_fits_in_shared_memory_baseline_does_not() {
        let imp = GpuAligner::improved(Device::a6000());
        let base = GpuAligner::baseline(Device::a6000());
        let limit = imp.device.desc.shared_mem_per_block;
        assert!(
            imp.shared_bytes() <= limit,
            "improved table must fit on-chip: {} B vs {} B",
            imp.shared_bytes(),
            limit
        );
        // The unimproved 4-word full table would need 4*65*64*8 B.
        let full_table_bytes = 4 * 65 * 64 * 8;
        assert!(
            full_table_bytes > limit,
            "the unimproved table unexpectedly fits on-chip"
        );
        // So the baseline kernel only asks for scratch.
        assert!(base.shared_bytes() < 4 * 1024);
    }

    #[test]
    fn small_batch_aligns_correctly() {
        let gpu = GpuAligner::improved(Device::a6000());
        let tasks = vec![
            task("ACGTACGTAC", "ACGTACGTAC"),
            task("ACGTACGTAC", "ACGAACGTAC"),
            task("ACGTACGTAC", "ACGTACG"),
        ];
        let report = gpu.align_batch(&tasks).unwrap();
        assert_eq!(report.results.len(), 3);
        for (t, r) in tasks.iter().zip(&report.results) {
            r.alignment.check(&t.query, &t.target).unwrap();
        }
        assert_eq!(report.results[0].alignment.edit_distance, 0);
        assert_eq!(report.results[1].alignment.edit_distance, 1);
        assert!(report.timing.total_ms > 0.0);
    }

    #[test]
    fn gpu_matches_cpu_exactly() {
        let gpu_imp = GpuAligner::improved(Device::a6000());
        let gpu_base = GpuAligner::baseline(Device::a6000());
        let cpu = genasm_core::GenAsmAligner::improved();
        let q = "ACGTTGCA".repeat(40);
        let mut tbytes = q.clone().into_bytes();
        tbytes[100] = b'A';
        tbytes[200] = b'C';
        let t = String::from_utf8(tbytes).unwrap();
        let tasks = vec![task(&q, &t)];
        let ri = gpu_imp.align_batch(&tasks).unwrap();
        let rb = gpu_base.align_batch(&tasks).unwrap();
        let mut stats = genasm_core::MemStats::new();
        let ca = cpu
            .align_with_stats(&tasks[0].query, &tasks[0].target, &mut stats)
            .unwrap();
        assert_eq!(ri.results[0].alignment.cigar, ca.cigar);
        assert_eq!(rb.results[0].alignment.cigar, ca.cigar);
        // The GPU rows-computed must agree with the CPU instrumentation.
        assert_eq!(ri.results[0].stats.rows_computed, stats.rows_computed);
    }

    #[test]
    fn baseline_generates_far_more_global_traffic() {
        let gpu_imp = GpuAligner::improved(Device::a6000());
        let gpu_base = GpuAligner::baseline(Device::a6000());
        let q = "ACGTTGCAGGATCCAT".repeat(32); // 512 bases
        let tasks = vec![task(&q, &q)];
        let ri = gpu_imp.align_batch(&tasks).unwrap();
        let rb = gpu_base.align_batch(&tasks).unwrap();
        assert!(
            rb.totals.global_bytes > 20 * ri.totals.global_bytes,
            "baseline {} B vs improved {} B",
            rb.totals.global_bytes,
            ri.totals.global_bytes
        );
        assert!(
            rb.timing.total_ms > ri.timing.total_ms,
            "baseline modeled time must exceed improved"
        );
    }

    #[test]
    fn budget_exhaustion_is_a_kernel_failure() {
        let mut cfg = GenAsmConfig::improved();
        cfg.k = 2;
        let gpu = GpuAligner::with_config(Device::a6000(), cfg);
        let tasks = vec![task("AAAAAAAAAA", "TTTTTTTTTT")];
        let err = gpu.align_batch(&tasks).unwrap_err();
        assert!(matches!(err, SimError::KernelFailed { .. }));
    }

    #[test]
    fn empty_batch_is_fine() {
        let gpu = GpuAligner::improved(Device::a6000());
        let report = gpu.align_batch(&[]).unwrap();
        assert!(report.results.is_empty());
    }
}
