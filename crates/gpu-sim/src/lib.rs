//! # gpu-sim
//!
//! A software SIMT execution substrate standing in for the paper's
//! NVIDIA A6000 (what the substitution keeps, and what it does not, is
//! spelled out below).
//!
//! Kernels ([`Kernel`]) are barrier-phase block programs executed on
//! the host's worker pool — the one `--threads` sizes
//! ([`Device::launch`]). The substrate enforces the
//! GPU's *capacity* constraints (per-block shared memory, occupancy)
//! and measures the *traffic* every block generates (warp issue slots,
//! shared accesses, global accesses and bytes), whether it counts them
//! access by access or books them in closed form. An analytic
//! roofline+latency model ([`timing`]) turns those counters into a
//! device-time estimate.
//!
//! What is faithful: capacity limits, traffic accounting, occupancy,
//! relative timing between kernels on the same device. What is not:
//! cycle-accurate microarchitecture — absolute times are estimates, and
//! the experiments report them as such.
//!
//! ```
//! use gpu_sim::{Device, DeviceDescriptor, Kernel, BlockCtx, SimError};
//!
//! struct Doubler;
//! impl Kernel for Doubler {
//!     type Args = Vec<u64>;
//!     type Output = u64;
//!     // Per-worker reusable staging; this kernel needs none.
//!     type Workspace = ();
//!     fn block(&self, ctx: &mut BlockCtx, args: &Vec<u64>, _ws: &mut ()) -> Result<u64, SimError> {
//!         Ok(args[ctx.block_idx] * 2)
//!     }
//! }
//!
//! let dev = Device::new(DeviceDescriptor::tiny());
//! let out = dev.launch(3, 1, 0, &Doubler, &vec![1, 2, 3]).unwrap();
//! assert_eq!(out.outputs, vec![2, 4, 6]);
//! ```

#![forbid(unsafe_code)]

pub mod ctx;
pub mod device;
pub mod error;
pub mod launch;
pub mod timing;

pub use ctx::{BlockCounters, BlockCtx, GlobalBuf, SharedBuf};
pub use device::DeviceDescriptor;
pub use error::SimError;
pub use launch::{Device, Kernel, LaunchReport};
pub use timing::{estimate, TimingEstimate};
