//! Configuration of the GenASM aligner: window geometry, edit budget,
//! and the three algorithmic improvements (individually toggleable for
//! the ablation experiment A1).

use crate::bitvec::MAX_W;

/// Which of the paper's three improvements are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Improvements {
    /// Improvement 1 — entry compression: store one word per DP entry
    /// (the AND of the edge vectors) instead of the four edge vectors.
    pub compress: bool,
    /// Improvement 2 — early termination: evaluate error rows in
    /// ascending order and stop at the first row containing the full
    /// solution.
    pub early_term: bool,
    /// Improvement 3 — traceback-reachability pruning: do not store DP
    /// entries the traceback provably cannot read.
    pub dent: bool,
}

impl Improvements {
    /// All improvements off: the unimproved GenASM of Senol Cali et al.
    pub const NONE: Improvements = Improvements {
        compress: false,
        early_term: false,
        dent: false,
    };

    /// All improvements on: the paper's contribution.
    pub const ALL: Improvements = Improvements {
        compress: true,
        early_term: true,
        dent: true,
    };

    /// Name used in ablation reports, e.g. `"+compress+et"`.
    pub fn label(&self) -> String {
        if *self == Improvements::NONE {
            return "baseline".to_string();
        }
        let mut s = String::new();
        if self.compress {
            s.push_str("+compress");
        }
        if self.early_term {
            s.push_str("+et");
        }
        if self.dent {
            s.push_str("+dent");
        }
        s
    }

    /// All 8 combinations, for the ablation sweep.
    pub fn all_combinations() -> Vec<Improvements> {
        let mut v = Vec::with_capacity(8);
        for bits in 0..8u8 {
            v.push(Improvements {
                compress: bits & 1 != 0,
                early_term: bits & 2 != 0,
                dent: bits & 4 != 0,
            });
        }
        v
    }
}

/// Full configuration of the windowed GenASM aligner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenAsmConfig {
    /// Window size `W` (pattern and text characters per window), `1..=64`.
    pub w: usize,
    /// Window overlap `O < W`. Each non-final window commits only its
    /// first `W - O` consumed characters.
    pub o: usize,
    /// Per-window edit budget `k <= W`. With `k = W` a window can never
    /// fail; smaller budgets make `GenAsmAligner::align` return
    /// `NoAlignment` when a window needs more edits.
    pub k: usize,
    /// Enabled improvements.
    pub improvements: Improvements,
}

impl GenAsmConfig {
    /// The paper's configuration with all improvements: `W = 64`,
    /// `O = 24`, `k = W`.
    pub fn improved() -> GenAsmConfig {
        GenAsmConfig {
            w: 64,
            o: 24,
            k: 64,
            improvements: Improvements::ALL,
        }
    }

    /// Unimproved GenASM (the MICRO 2020 algorithm) with the same window
    /// geometry.
    pub fn baseline() -> GenAsmConfig {
        GenAsmConfig {
            improvements: Improvements::NONE,
            ..GenAsmConfig::improved()
        }
    }

    /// Number of characters committed per non-final window.
    pub fn keep(&self) -> usize {
        self.w - self.o
    }

    /// First text column a window of `n` columns stores: DENT's cut
    /// (derived in [`crate::engine`]) for non-final windows, 0 for
    /// final windows and when DENT is off.
    pub fn dent_cut(&self, n: usize, keep: usize, final_window: bool) -> usize {
        if final_window || !self.improvements.dent {
            0
        } else {
            n.saturating_sub(keep + 1)
        }
    }

    /// Validate the geometry; panics with a clear message on invalid
    /// configurations (these are programming errors, not data errors).
    pub fn validate(&self) {
        assert!(
            self.w >= 1 && self.w <= MAX_W,
            "window size W={} must be in 1..=64",
            self.w
        );
        assert!(
            self.o < self.w,
            "overlap O={} must be < W={}",
            self.o,
            self.w
        );
        assert!(
            self.k <= self.w,
            "edit budget k={} must be <= W={} (one bitvector row per error)",
            self.k,
            self.w
        );
    }

    /// Words stored per DP entry under this configuration.
    pub fn words_per_entry(&self) -> usize {
        if self.improvements.compress {
            1
        } else {
            4
        }
    }
}

impl Default for GenAsmConfig {
    fn default() -> GenAsmConfig {
        GenAsmConfig::improved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let imp = GenAsmConfig::improved();
        imp.validate();
        assert_eq!(imp.keep(), 40);
        assert_eq!(imp.words_per_entry(), 1);
        let base = GenAsmConfig::baseline();
        base.validate();
        assert_eq!(base.words_per_entry(), 4);
        assert_eq!(base.w, imp.w);
    }

    #[test]
    fn labels() {
        assert_eq!(Improvements::NONE.label(), "baseline");
        assert_eq!(Improvements::ALL.label(), "+compress+et+dent");
        let only_et = Improvements {
            compress: false,
            early_term: true,
            dent: false,
        };
        assert_eq!(only_et.label(), "+et");
    }

    #[test]
    fn combinations_cover_all() {
        let all = Improvements::all_combinations();
        assert_eq!(all.len(), 8);
        assert!(all.contains(&Improvements::NONE));
        assert!(all.contains(&Improvements::ALL));
    }

    #[test]
    #[should_panic(expected = "must be < W")]
    fn invalid_overlap_panics() {
        GenAsmConfig {
            w: 32,
            o: 32,
            k: 32,
            improvements: Improvements::ALL,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "must be in 1..=64")]
    fn oversized_window_panics() {
        GenAsmConfig {
            w: 65,
            o: 24,
            k: 64,
            improvements: Improvements::ALL,
        }
        .validate();
    }
}
