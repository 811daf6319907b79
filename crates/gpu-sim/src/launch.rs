//! Kernel launch: running the blocks and assembling the launch report.
//!
//! The blocks are the items of one `rayon` parallel map, the fan-out
//! the CPU batch aligners use: the pool `--threads` sizes is the
//! simulator's host pool, and the launching thread is one of its workers.

use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;

use crate::ctx::{BlockCounters, BlockCtx};
use crate::device::DeviceDescriptor;
use crate::error::SimError;
use crate::timing::{estimate, TimingEstimate};

/// A GPU kernel: stateless block program plus its launch geometry
/// requirements.
pub trait Kernel: Sync {
    /// Immutable input shared by all blocks.
    type Args: Sync + ?Sized;
    /// Per-block output.
    type Output: Send;
    /// Reusable host-side staging state. Each simulation worker creates
    /// one workspace and reuses it across every block it executes, so
    /// kernels can keep scratch buffers (reversed-text staging, op
    /// buffers) allocation-free in steady state. Kernels without scratch
    /// use `()`.
    type Workspace: Default + Send;

    /// Execute one block. `ws` is this worker's reusable workspace; its
    /// contents at entry are whatever the previous block left behind, so
    /// kernels must clear what they read.
    fn block(
        &self,
        ctx: &mut BlockCtx,
        args: &Self::Args,
        ws: &mut Self::Workspace,
    ) -> Result<Self::Output, SimError>;
}

/// Result of a kernel launch.
#[derive(Debug)]
pub struct LaunchReport<O> {
    /// Per-block outputs, in block order.
    pub outputs: Vec<O>,
    /// Aggregated counters over all blocks.
    pub totals: BlockCounters,
    /// Modeled execution time on the simulated device.
    pub timing: TimingEstimate,
    /// Wall-clock time the simulation itself took (for reference only;
    /// this is host time, not device time).
    pub host_ms: f64,
}

/// The simulated device.
#[derive(Debug, Clone)]
pub struct Device {
    /// Hardware description used for capacity checks and timing.
    pub desc: DeviceDescriptor,
}

impl Device {
    /// An RTX A6000-like device.
    pub fn a6000() -> Device {
        Device::new(DeviceDescriptor::a6000())
    }

    /// Wrap a descriptor.
    pub fn new(desc: DeviceDescriptor) -> Device {
        Device { desc }
    }

    /// Launch `grid_dim` blocks of `block_dim` threads, each allowed
    /// `shared_bytes` of shared memory.
    ///
    /// Blocks execute on the host's worker pool in any order (like real
    /// blocks); outputs are returned in block order and counters are
    /// deterministic regardless of scheduling. A failing launch returns
    /// the error of its lowest-numbered failing block, whatever the
    /// pool size.
    pub fn launch<K: Kernel>(
        &self,
        grid_dim: usize,
        block_dim: usize,
        shared_bytes: usize,
        kernel: &K,
        args: &K::Args,
    ) -> Result<LaunchReport<K::Output>, SimError> {
        if block_dim == 0 {
            return Err(SimError::InvalidLaunch {
                reason: "block_dim must be positive".into(),
            });
        }
        if shared_bytes > self.desc.shared_mem_per_block {
            return Err(SimError::InvalidLaunch {
                reason: format!(
                    "requested {shared_bytes} B of shared memory per block, device allows {}",
                    self.desc.shared_mem_per_block
                ),
            });
        }
        let start = std::time::Instant::now();
        // Lowest failed block so far (a hint; it publishes nothing).
        // Blocks above it are skipped (`None`); blocks below it always
        // run, so the lowest failure of all is always found.
        let first_failed = AtomicUsize::new(usize::MAX);
        let blocks: Vec<usize> = (0..grid_dim).collect();
        let results: Vec<_> = blocks
            .par_iter()
            .map_init(K::Workspace::default, |ws, &b| {
                if b > first_failed.load(Ordering::Relaxed) {
                    return None;
                }
                let mut ctx =
                    BlockCtx::new(b, grid_dim, block_dim, self.desc.warp_size, shared_bytes);
                let out = kernel.block(&mut ctx, args, ws);
                if out.is_err() {
                    first_failed.fetch_min(b, Ordering::Relaxed);
                }
                Some(out.map(|out| (ctx.into_counters(), out)))
            })
            .collect();

        let mut totals = BlockCounters::default();
        let mut per_block = Vec::with_capacity(grid_dim);
        let mut outputs = Vec::with_capacity(grid_dim);
        // In block order the first entry that is not `Ok` is the lowest
        // failure, and skipped blocks only come after it.
        for block in results.into_iter().flatten() {
            let (c, o) = block?;
            totals.merge(&c);
            per_block.push(c);
            outputs.push(o);
        }
        let timing = estimate(&self.desc, &per_block, block_dim, shared_bytes);
        Ok(LaunchReport {
            outputs,
            totals,
            timing,
            host_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy kernel: block-wide tree reduction of `block_dim` values
    /// staged through shared memory.
    struct ReduceKernel;

    impl Kernel for ReduceKernel {
        type Args = Vec<u64>;
        type Output = u64;
        type Workspace = ();

        fn block(
            &self,
            ctx: &mut BlockCtx,
            args: &Vec<u64>,
            _ws: &mut (),
        ) -> Result<u64, SimError> {
            let n = ctx.block_dim;
            let mut sh = ctx.shared_alloc(n)?;
            let base = ctx.block_idx * n;
            ctx.charge_global_stream((n * 8) as u64);
            ctx.phase(0..n, |tid, c| {
                let v = args.get(base + tid).copied().unwrap_or(0);
                c.sh_store(&mut sh, tid, v);
            });
            let mut stride = n / 2;
            while stride > 0 {
                ctx.phase(0..stride, |tid, c| {
                    let a = c.sh_load(&sh, tid);
                    let b = c.sh_load(&sh, tid + stride);
                    c.sh_store(&mut sh, tid, a + b);
                });
                stride /= 2;
            }
            Ok(ctx.sh_load(&sh, 0))
        }
    }

    #[test]
    fn reduction_kernel_is_correct_and_counted() {
        let dev = Device::new(DeviceDescriptor::tiny());
        let data: Vec<u64> = (0..64).collect();
        let report = dev.launch(4, 16, 2048, &ReduceKernel, &data).unwrap();
        // Block b sums 16 consecutive integers.
        let expect: Vec<u64> = (0..4)
            .map(|b| (16 * b..16 * (b + 1)).sum::<u64>())
            .collect();
        assert_eq!(report.outputs, expect);
        assert!(report.totals.shared_accesses() > 0);
        assert!(report.totals.global_bytes >= 4 * 16 * 8);
        assert!(report.timing.total_ms > 0.0);
    }

    #[test]
    fn launch_is_deterministic_across_runs() {
        let dev = Device::new(DeviceDescriptor::tiny());
        let data: Vec<u64> = (0..256).map(|i| i * 7).collect();
        let a = dev.launch(16, 16, 2048, &ReduceKernel, &data).unwrap();
        let b = dev.launch(16, 16, 2048, &ReduceKernel, &data).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.timing.total_ms, b.timing.total_ms);
    }

    #[test]
    fn shared_overflow_fails_launch() {
        struct Hog;
        impl Kernel for Hog {
            type Args = ();
            type Output = ();
            type Workspace = ();
            fn block(&self, ctx: &mut BlockCtx, _: &(), _ws: &mut ()) -> Result<(), SimError> {
                ctx.shared_alloc(10_000)?; // 80 KB > tiny's 2 KB
                Ok(())
            }
        }
        let dev = Device::new(DeviceDescriptor::tiny());
        let err = dev.launch(1, 4, 2048, &Hog, &()).unwrap_err();
        assert!(matches!(err, SimError::SharedMemoryExceeded { .. }));
    }

    #[test]
    fn oversized_shared_request_rejected_at_launch() {
        let dev = Device::new(DeviceDescriptor::tiny());
        let err = dev
            .launch(1, 4, 1 << 20, &ReduceKernel, &vec![0; 4])
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunch { .. }));
    }

    #[test]
    fn zero_block_dim_rejected() {
        let dev = Device::new(DeviceDescriptor::tiny());
        let err = dev.launch(1, 0, 0, &ReduceKernel, &vec![]).unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunch { .. }));
    }

    #[test]
    fn empty_grid_is_fine() {
        let dev = Device::new(DeviceDescriptor::tiny());
        let r = dev.launch(0, 4, 0, &ReduceKernel, &vec![]).unwrap();
        assert!(r.outputs.is_empty());
    }
}
