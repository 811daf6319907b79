//! The public aligner façade.

use align_core::{AlignError, Alignment, GlobalAligner, Seq};

use crate::config::GenAsmConfig;
use crate::stats::MemStats;
use crate::window::{align_with_stats, align_with_workspace};
use crate::workspace::AlignWorkspace;

/// The GenASM aligner: configure once, align many pairs.
///
/// ```
/// use genasm_core::GenAsmAligner;
/// use align_core::{Seq, GlobalAligner};
///
/// let aligner = GenAsmAligner::improved();
/// let q = Seq::from_ascii(b"ACGTACGTAC").unwrap();
/// let t = Seq::from_ascii(b"ACGAACGTAC").unwrap();
/// let aln = aligner.align(&q, &t).unwrap();
/// assert_eq!(aln.edit_distance, 1);
/// aln.check(&q, &t).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct GenAsmAligner {
    cfg: GenAsmConfig,
}

impl GenAsmAligner {
    /// Aligner with the paper's improved configuration.
    pub fn improved() -> GenAsmAligner {
        GenAsmAligner::with_config(GenAsmConfig::improved())
    }

    /// Aligner running unimproved GenASM (MICRO 2020).
    pub fn baseline() -> GenAsmAligner {
        GenAsmAligner::with_config(GenAsmConfig::baseline())
    }

    /// Aligner with an explicit configuration (panics on invalid
    /// geometry).
    pub fn with_config(cfg: GenAsmConfig) -> GenAsmAligner {
        cfg.validate();
        GenAsmAligner { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &GenAsmConfig {
        &self.cfg
    }

    /// Align one pair, adding its instrumentation to `stats`
    /// ([`GlobalAligner::align`] discards it).
    pub fn align_with_stats(
        &self,
        query: &Seq,
        target: &Seq,
        stats: &mut MemStats,
    ) -> Result<Alignment, AlignError> {
        align_with_stats(query, target, &self.cfg, stats)
    }

    /// Align one pair borrowing all scratch from `ws` — the hot-path
    /// entry point. Instrumentation accumulates in `ws.stats`.
    ///
    /// ```
    /// use genasm_core::{AlignWorkspace, GenAsmAligner};
    /// use align_core::Seq;
    ///
    /// let aligner = GenAsmAligner::improved();
    /// let mut ws = AlignWorkspace::new();
    /// let q = Seq::from_ascii(b"ACGTACGTAC").unwrap();
    /// let t = Seq::from_ascii(b"ACGAACGTAC").unwrap();
    /// for _ in 0..3 {
    ///     // Scratch buffers are reused across these calls.
    ///     let aln = aligner.align_reusing(&mut ws, &q, &t).unwrap();
    ///     assert_eq!(aln.edit_distance, 1);
    /// }
    /// ```
    pub fn align_reusing(
        &self,
        ws: &mut AlignWorkspace,
        query: &Seq,
        target: &Seq,
    ) -> Result<Alignment, AlignError> {
        align_with_workspace(query, target, &self.cfg, ws)
    }

    /// A workspace pre-sized for this aligner's window geometry.
    pub fn new_workspace(&self) -> AlignWorkspace {
        AlignWorkspace::with_capacity(self.cfg.w)
    }
}

impl GlobalAligner for GenAsmAligner {
    fn align(&self, query: &Seq, target: &Seq) -> align_core::Result<Alignment> {
        align_with_stats(query, target, &self.cfg, &mut MemStats::new())
    }

    fn name(&self) -> &'static str {
        if self.cfg.improvements == crate::config::Improvements::ALL {
            "genasm-improved"
        } else if self.cfg.improvements == crate::config::Improvements::NONE {
            "genasm-baseline"
        } else {
            "genasm-custom"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn facade_aligns_and_accumulates_stats() {
        let aligner = GenAsmAligner::improved();
        let q = seq(&"ACGTACGT".repeat(20));
        let a = aligner.align(&q, &q).unwrap();
        assert_eq!(a.edit_distance, 0);
        let mut stats = MemStats::new();
        let b = aligner.align_with_stats(&q, &q, &mut stats).unwrap();
        assert_eq!(a, b);
        let once = stats.windows;
        assert!(once > 0);
        aligner.align_with_stats(&q, &q, &mut stats).unwrap();
        assert_eq!(stats.windows, 2 * once);
    }

    #[test]
    fn aligner_is_shareable_across_batch_workers() {
        // `genasm_cpu::align_batch_with` needs `GlobalAligner + Sync`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GenAsmAligner>();
    }

    #[test]
    fn names() {
        assert_eq!(GenAsmAligner::improved().name(), "genasm-improved");
        assert_eq!(GenAsmAligner::baseline().name(), "genasm-baseline");
        let mut cfg = GenAsmConfig::improved();
        cfg.improvements.dent = false;
        assert_eq!(GenAsmAligner::with_config(cfg).name(), "genasm-custom");
    }
}
