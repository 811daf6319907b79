//! Pluggable alignment backends.
//!
//! The dispatch stage hands each scheduled batch to a [`Backend`]; the
//! trait is the seam where the Rayon CPU batch aligner, the simulated
//! GPU, and the baseline aligners all plug in. Backends are free to
//! parallelize internally (the CPU backend uses one Rayon worker per
//! core with a reused [`genasm_core::AlignWorkspace`] each; the GPU
//! backend launches one block per task), but they must be pure: the
//! alignment of a task depends only on that task, never on batch
//! composition — that is what makes pipeline output independent of
//! batch geometry. A backend also says how many of its batches may run
//! at once ([`Backend::in_flight`]): the CPU engines take two, so the
//! next batch starts on the worker the last one's longest task leaves
//! idle.

use std::sync::Mutex;

use align_core::{AlignTask, Alignment, GlobalAligner};
use baselines::{Ksw2Aligner, MyersAligner};
use genasm_core::{GenAsmConfig, MemStats};
use genasm_cpu::{align_batch_genasm, align_batch_with};
use genasm_gpu::GpuAligner;
use gpu_sim::Device;

/// A batch alignment engine the dispatch stage can drive.
pub trait Backend: Send + Sync {
    /// Short name used in reports and errors.
    fn name(&self) -> &'static str;

    /// Align every task; entry `i` is the alignment of `tasks[i]` or
    /// `None` when the task exceeded the aligner's edit budget.
    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError>;

    /// Engine instrumentation accumulated across every batch this
    /// backend instance has aligned so far (cumulative, like the other
    /// pipeline counters), if the backend collects any, surfaced in
    /// [`crate::PipelineMetrics`]. A dispatcher reads this after every
    /// batch it ran — possibly while another dispatcher is mid-batch
    /// on the same instance — and
    /// [`crate::PipelineService::metrics`] merges the readings across
    /// backends, so implementations must be **batch-atomic**: stats
    /// are merged into the accumulator under a lock, once per
    /// completed batch, and a concurrent reader sees either all of a
    /// batch's counts or none of them — never a partial merge. Two
    /// consecutive snapshots are therefore field-by-field monotonic
    /// (including `peak_band_rows`, a max-merged high-water mark,
    /// which is non-decreasing). Backends without GenASM-style
    /// counters (the baselines) return `None`.
    fn engine_stats(&self) -> Option<MemStats> {
        None
    }

    /// How many of this backend's batches may run at once: the threads
    /// of its dispatch lane, which pop its batches in the order the
    /// scheduler cut them, so there are never more than this many
    /// [`Backend::align_batch`] calls open on the instance. At `1` (the
    /// default) the calls come one at a time, in cut order, so a
    /// backend whose state is not safe to overlap — a device model
    /// that assumes it owns the whole device per launch — needs nothing
    /// else. Each thread has a trace lane of its own, and a service's
    /// backend table has eight in all (the shipped table takes seven):
    /// starting a service over more panics.
    fn in_flight(&self) -> usize {
        1
    }
}

/// A backend failed in a way that poisons the whole batch.
#[derive(Debug, Clone)]
pub struct BackendError {
    /// Which backend failed.
    pub backend: &'static str,
    /// What went wrong.
    pub reason: String,
}

impl core::fmt::Display for BackendError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "backend {}: {}", self.backend, self.reason)
    }
}

impl std::error::Error for BackendError {}

/// The GenASM CPU batch aligner (Rayon, allocation-free hot path).
pub struct CpuBackend {
    cfg: GenAsmConfig,
    name: &'static str,
    stats: Mutex<MemStats>,
}

impl CpuBackend {
    /// Improved GenASM (the paper's contribution).
    pub fn improved() -> CpuBackend {
        CpuBackend {
            cfg: GenAsmConfig::improved(),
            name: "cpu",
            stats: Mutex::new(MemStats::new()),
        }
    }

    /// Unimproved GenASM (Senol Cali et al. 2020).
    pub fn baseline() -> CpuBackend {
        CpuBackend {
            cfg: GenAsmConfig::baseline(),
            name: "cpu-base",
            stats: Mutex::new(MemStats::new()),
        }
    }
}

impl Backend for CpuBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError> {
        let res = align_batch_genasm(tasks, &self.cfg);
        self.stats
            .lock()
            .expect("stats mutex poisoned")
            .merge(&res.stats);
        Ok(res.alignments)
    }

    fn engine_stats(&self) -> Option<MemStats> {
        Some(*self.stats.lock().expect("stats mutex poisoned"))
    }

    /// One batch running and one starting on the worker the first
    /// batch's tail frees: a batch of ~14 uneven 10 kb tasks on two
    /// workers ends with one of them idle while the longest task runs.
    /// The only shared state is `stats`, merged once per batch.
    fn in_flight(&self) -> usize {
        2
    }
}

/// The simulated-GPU GenASM kernel (one block per task). One launch at
/// a time ([`Backend::in_flight`] keeps its default): the model has one
/// device, and each launch's modelled timing assumes it owns all of it.
pub struct GpuSimBackend {
    gpu: GpuAligner,
    stats: Mutex<MemStats>,
}

impl GpuSimBackend {
    /// Improved kernel on the paper's RTX A6000 model.
    pub fn a6000() -> GpuSimBackend {
        GpuSimBackend {
            gpu: GpuAligner::improved(Device::a6000()),
            stats: Mutex::new(MemStats::new()),
        }
    }
}

impl Backend for GpuSimBackend {
    fn name(&self) -> &'static str {
        "gpu-sim"
    }

    /// Every simulator error poisons the batch. That includes
    /// `KernelFailed`, which only a window over its edit budget
    /// raises: at the shipped `k = W` no window is.
    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError> {
        let report = self.gpu.align_batch(tasks).map_err(|e| BackendError {
            backend: "gpu-sim",
            reason: e.to_string(),
        })?;
        // One lock per launch, so a concurrent reader sees all of it
        // or none.
        let mut stats = self.stats.lock().expect("stats mutex poisoned");
        for r in &report.results {
            stats.merge(&r.stats);
        }
        Ok(report
            .results
            .into_iter()
            .map(|r| Some(r.alignment))
            .collect())
    }

    fn engine_stats(&self) -> Option<MemStats> {
        Some(*self.stats.lock().expect("stats mutex poisoned"))
    }
}

/// A baseline aligner (Edlib, KSW2) behind the batch interface: every
/// task through [`GlobalAligner::align`] on the Rayon pool, no engine
/// counters.
struct BaselineBackend<A>(A);

impl<A: GlobalAligner + Send + Sync> Backend for BaselineBackend<A> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError> {
        Ok(align_batch_with(tasks, &self.0).alignments)
    }

    /// Two, as [`CpuBackend`]: the aligners are stateless.
    fn in_flight(&self) -> usize {
        2
    }
}

/// The selectable backends, mirroring the CLI `--backend` choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// GenASM on the Rayon CPU batch aligner.
    Cpu,
    /// GenASM on the simulated GPU.
    GpuSim,
    /// Myers/Edlib exact baseline.
    Edlib,
    /// KSW2 quadratic DP baseline.
    Ksw2,
}

impl BackendKind {
    /// Every kind with its CLI name.
    pub const ALL: [(BackendKind, &'static str); 4] = [
        (BackendKind::Cpu, "cpu"),
        (BackendKind::GpuSim, "gpu-sim"),
        (BackendKind::Edlib, "edlib"),
        (BackendKind::Ksw2, "ksw2"),
    ];

    /// Instantiate the backend.
    pub fn create(&self) -> Box<dyn Backend> {
        match self {
            BackendKind::Cpu => Box::new(CpuBackend::improved()),
            BackendKind::GpuSim => Box::new(GpuSimBackend::a6000()),
            BackendKind::Edlib => Box::new(BaselineBackend(MyersAligner::new())),
            BackendKind::Ksw2 => Box::new(BaselineBackend(Ksw2Aligner::new())),
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<BackendKind, ParseBackendError> {
        BackendKind::ALL
            .iter()
            .find(|(_, name)| *name == s)
            .map(|&(kind, _)| kind)
            .ok_or_else(|| ParseBackendError {
                given: s.to_string(),
            })
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (_, name) = BackendKind::ALL
            .iter()
            .find(|(kind, _)| kind == self)
            .expect("every kind is in BackendKind::ALL");
        f.write_str(name)
    }
}

/// Error for an unrecognized backend name; lists the valid ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    /// What the user typed.
    pub given: String,
}

impl std::fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown backend '{}'; valid backends are ", self.given)?;
        for (i, (_, name)) in BackendKind::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "'{name}'")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseBackendError {}

#[cfg(test)]
mod tests {
    use super::*;
    use align_core::Seq;

    fn task(q: &str, t: &str) -> AlignTask {
        AlignTask::new(
            0,
            0,
            Seq::from_ascii(q.as_bytes()).unwrap(),
            Seq::from_ascii(t.as_bytes()).unwrap(),
        )
    }

    #[test]
    fn every_backend_aligns_and_validates() {
        let tasks = vec![
            task("ACGTACGTACGTACGT", "ACGTACCTACGTACGT"),
            task("ACGTACGTACGTACGT", "ACGTACGTACGTACGT"),
        ];
        for (kind, name) in BackendKind::ALL {
            let backend = kind.create();
            assert_eq!(backend.name(), name);
            let out = backend.align_batch(&tasks).unwrap();
            assert_eq!(out.len(), 2);
            for (t, a) in tasks.iter().zip(&out) {
                let a = a.as_ref().unwrap_or_else(|| panic!("{name} rejected"));
                a.check(&t.query, &t.target).unwrap();
            }
            assert_eq!(out[1].as_ref().unwrap().edit_distance, 0);
        }
    }

    #[test]
    fn kind_round_trips_through_strings() {
        for (kind, name) in BackendKind::ALL {
            assert_eq!(name.parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), name);
        }
    }

    #[test]
    fn unknown_backend_lists_choices() {
        let err = "cuda".parse::<BackendKind>().unwrap_err();
        let msg = err.to_string();
        assert_eq!(
            msg,
            "unknown backend 'cuda'; valid backends are 'cpu', 'gpu-sim', 'edlib', 'ksw2'"
        );
        for (_, name) in BackendKind::ALL {
            assert!(msg.contains(name), "missing {name} in {msg}");
        }
    }

    #[test]
    fn cpu_and_gpu_sim_report_equal_window_and_band_counters() {
        // Both engines run the one window pipeline, so on the same
        // tasks their window/band counters are equal.
        let clean = "ACGTTGCAGGATCCAT".repeat(20);
        let mut noisy = clean.clone().into_bytes();
        for pos in (2..noisy.len()).step_by(5) {
            noisy[pos] = if noisy[pos] == b'A' { b'C' } else { b'A' };
        }
        let noisy = String::from_utf8(noisy).unwrap();
        let tasks = vec![task(&clean, &clean), task(&clean, &noisy)];
        let counters = |backend: &dyn Backend| {
            backend.align_batch(&tasks).unwrap();
            let s = backend.engine_stats().unwrap();
            [
                s.windows,
                s.rows_computed,
                s.windows_early_terminated,
                s.band_cells_skipped,
                s.peak_band_rows,
            ]
        };
        let cpu = counters(&CpuBackend::improved());
        let gpu = counters(&GpuSimBackend::a6000());
        assert_eq!(cpu, gpu);
        assert!(
            cpu.iter().all(|&c| c > 0),
            "every counter exercised: {cpu:?}"
        );
    }

    #[test]
    fn cpu_engines_overlap_two_batches_and_the_device_model_none() {
        let in_flight: Vec<(&str, usize)> = BackendKind::ALL
            .iter()
            .map(|(kind, name)| (*name, kind.create().in_flight()))
            .collect();
        assert_eq!(
            in_flight,
            [("cpu", 2), ("gpu-sim", 1), ("edlib", 2), ("ksw2", 2)]
        );
        assert_eq!(CpuBackend::baseline().in_flight(), 2);
    }

    #[test]
    fn auto_is_an_unknown_backend() {
        let msg = "auto".parse::<BackendKind>().unwrap_err().to_string();
        assert_eq!(
            msg,
            "unknown backend 'auto'; valid backends are 'cpu', 'gpu-sim', 'edlib', 'ksw2'"
        );
    }

    #[test]
    fn cpu_baseline_has_distinct_name() {
        assert_eq!(CpuBackend::baseline().name(), "cpu-base");
        let out = CpuBackend::baseline()
            .align_batch(&[task("ACGT", "ACGT")])
            .unwrap();
        assert_eq!(out[0].as_ref().unwrap().edit_distance, 0);
    }
}
