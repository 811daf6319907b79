//! # genasm-gpu
//!
//! GenASM on the simulated GPU: the paper's improved kernel (DP table
//! in shared memory, entry compression, early termination, DENT) and
//! the unimproved kernel (4-word entries, all rows, DP table in global
//! memory), both executing on the [`gpu_sim`] SIMT substrate.
//!
//! The kernels share the bit-level recurrence with `genasm-core`
//! ([`genasm_core::bitvec`]), and their CIGARs are property-tested to
//! be identical to the CPU implementation — the GPU port changes *where
//! the table lives and how it is computed in parallel*, never the
//! result.
//!
//! ```
//! use genasm_gpu::GpuAligner;
//! use gpu_sim::Device;
//! use align_core::{AlignTask, Seq};
//!
//! let gpu = GpuAligner::improved(Device::a6000());
//! let q = Seq::from_ascii(b"ACGTACGTACGTACGT").unwrap();
//! let t = Seq::from_ascii(b"ACGTACCTACGTACGT").unwrap();
//! let report = gpu.align_batch(&[AlignTask::new(0, 0, q, t)]).unwrap();
//! assert_eq!(report.results[0].alignment.edit_distance, 1);
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod kernel;

pub use batch::{GpuAligner, GpuBatchReport};
pub use kernel::{
    shared_bytes_for, static_table_words, GenAsmKernel, GpuAlignment, KernelWorkspace, ROW_GROUP,
};
