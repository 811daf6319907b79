//! GenASM-DC as a standalone approximate-string-matching filter.
//!
//! The original GenASM framework (MICRO 2020) uses the distance
//! calculation alone — no traceback, no stored table — as a
//! pre-alignment filter: "where does this pattern occur in this text
//! with at most `k` edits?". This module exposes that mode. It sweeps
//! rows the way the aligner does ([`crate::bitvec::sweep_rows`]): row 0,
//! then row groups column by column over one boundary row, the group's
//! rows handed out a block of columns at a time to find where each
//! column first fires.
//!
//! The boundary row, the text's codes and the per-column result live in
//! an [`AlignWorkspace`], shared with the aligner:
//! [`filter_occurrences_with`] borrows a caller-owned workspace and is
//! allocation-free when warm; [`filter_occurrences`] wraps it with a
//! transient workspace for one-shot use.
//!
//! Semantics are classic Bitap approximate matching: an occurrence ends
//! at text position `i` when the whole pattern aligns to *some suffix*
//! of `text[..=i]` with at most `d` edits (free text prefix).

use align_core::Seq;

use crate::bitvec::{init_row, sweep_row0, sweep_rows, PatternMask, MAX_W};
use crate::engine::GROUP;
use crate::workspace::AlignWorkspace;

/// One approximate occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    /// Text position the occurrence ends at (inclusive).
    pub end: usize,
    /// Edit count of the best alignment ending there (≤ the filter's
    /// `k`).
    pub edits: usize,
}

/// All occurrence end positions with their minimal edit counts, for
/// occurrences needing at most `k` edits. One-shot wrapper around
/// [`filter_occurrences_with`].
pub fn filter_occurrences(pattern: &Seq, text: &Seq, k: usize) -> Vec<Occurrence> {
    let mut out = Vec::new();
    filter_occurrences_with(&mut AlignWorkspace::new(), pattern, text, k, &mut out);
    out
}

/// Text columns of a row group held at once while the filter looks
/// for the row each column first fires in.
const BLOCK: usize = 64;

/// All occurrences of `pattern` in `text` within `k` edits, borrowing
/// scratch from `ws` and appending to `out` (cleared first).
///
/// Sweeps rows `0..=min(k, m)` and reports, per text position, the
/// first row in which the solution bit became active. Row `m` has it
/// active at every position (insertions alone consume the pattern), so
/// no later row can add an occurrence.
///
/// # Panics
/// Panics if the pattern is empty or longer than [`MAX_W`].
pub fn filter_occurrences_with(
    ws: &mut AlignWorkspace,
    pattern: &Seq,
    text: &Seq,
    k: usize,
    out: &mut Vec<Occurrence>,
) {
    assert!(
        !pattern.is_empty() && pattern.len() <= MAX_W,
        "pattern length {} not in 1..=64",
        pattern.len()
    );
    out.clear();
    let n = text.len();
    if n == 0 {
        return;
    }
    let pm = PatternMask::new(pattern);
    let solution = pm.solution_bit();
    let last_row = k.min(pattern.len());
    ws.ensure_scratch(n);
    let AlignWorkspace {
        text_rev: codes,
        prev_row,
        occ_best,
        ..
    } = ws;
    codes.clear();
    codes.extend((0..n).map(|i| text.get_code(i)));
    let boundary = &mut prev_row[..n];

    const UNSEEN: u32 = u32::MAX;
    sweep_row0::<1>(boundary, &pm, codes, n, &mut []);
    occ_best.clear();
    occ_best.extend(boundary.iter().map(|&v| match v & solution {
        0 => 0,
        _ => UNSEEN,
    }));
    let mut d0 = 1;
    while d0 <= last_row {
        let mut left: [u64; GROUP + 1] = std::array::from_fn(|r| init_row(d0 - 1 + r));
        let mut rows = [[[0u64; 1]; BLOCK]; GROUP];
        let counted = GROUP.min(last_row + 1 - d0);
        for start in (0..n).step_by(BLOCK) {
            let cols = start..n.min(start + BLOCK);
            let stored = rows.each_mut().map(|row| &mut row[..cols.len()]);
            let bound = &mut boundary[cols.clone()];
            sweep_rows(&mut left, bound, &pm, &codes[cols.clone()], 0, stored);
            for (r, row) in rows[..counted].iter().enumerate() {
                for (best, &[v]) in occ_best[cols.clone()].iter_mut().zip(row) {
                    if v & solution == 0 && *best == UNSEEN {
                        *best = (d0 + r) as u32;
                    }
                }
            }
        }
        d0 += GROUP;
    }
    out.extend(occ_best.iter().enumerate().filter_map(|(end, &d)| {
        (d != UNSEEN).then_some(Occurrence {
            end,
            edits: d as usize,
        })
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    /// Minimum edits over all occurrences of `p` in `t` within `k`.
    fn best(p: &Seq, t: &Seq, k: usize) -> Option<usize> {
        filter_occurrences(p, t, k).iter().map(|o| o.edits).min()
    }

    /// Oracle: `row[j]` is the minimum edit count of `p` against any
    /// suffix of `t[..j]` (free text prefix), by quadratic DP.
    fn oracle_last_row(p: &Seq, t: &Seq) -> Vec<usize> {
        let m = p.len();
        let n = t.len();
        // dp[j] = min edits of p[0..i] vs t[..j] with free start.
        let mut prev: Vec<usize> = vec![0; n + 1]; // row i=0: free prefix
        let mut cur = vec![0usize; n + 1];
        for i in 1..=m {
            cur[0] = i;
            for j in 1..=n {
                let sub = prev[j - 1] + usize::from(p.get_code(i - 1) != t.get_code(j - 1));
                cur[j] = sub.min(prev[j] + 1).min(cur[j - 1] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev
    }

    /// Oracle: minimum edit distance of `p` against any substring of
    /// `t` (free text prefix and suffix).
    fn oracle_substring_distance(p: &Seq, t: &Seq) -> usize {
        oracle_last_row(p, t)
            .into_iter()
            .min()
            .expect("nonempty row")
    }

    #[test]
    fn exact_occurrence_found() {
        let p = seq("ACGTT");
        let t = seq("GGGACGTTGGG");
        assert_eq!(best(&p, &t, 2), Some(0));
        let occ = filter_occurrences(&p, &t, 0);
        assert_eq!(occ, vec![Occurrence { end: 7, edits: 0 }]);
    }

    #[test]
    fn one_error_occurrence() {
        let p = seq("ACGTT");
        let t = seq("GGGACCTTGGG");
        assert_eq!(best(&p, &t, 2), Some(1));
    }

    #[test]
    fn rejects_beyond_budget() {
        let p = seq("AAAAAAA");
        let t = seq("TTTTTTTTTTTT");
        assert!(filter_occurrences(&p, &t, 3).is_empty());
    }

    #[test]
    fn empty_text_needs_full_pattern_deletion() {
        // An empty text has no end position to report.
        let p = seq("ACG");
        assert!(filter_occurrences(&p, &Seq::new(), 3).is_empty());
        // One base that matches nothing: every pattern base is an edit.
        assert_eq!(best(&p, &seq("T"), 2), None);
        assert_eq!(best(&p, &seq("T"), 3), Some(3));
    }

    #[test]
    fn matches_substring_oracle_on_dense_cases() {
        let cases = [
            ("ACGT", "TTACGTTT"),
            ("ACGT", "TTAGGTTT"),
            ("GATTACA", "GCATGCATGATTTACAGGG"),
            ("AAAA", "CCCC"),
            ("TGCA", "T"),
        ];
        for (p, t) in cases {
            let (p, t) = (seq(p), seq(t));
            let oracle = oracle_substring_distance(&p, &t);
            assert_eq!(best(&p, &t, p.len()), Some(oracle), "{p:?} in {t:?}");
        }
    }

    fn bases(codes: Vec<u8>) -> Seq {
        codes.into_iter().map(align_core::Base::from_code).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every end position whose best alignment fits the budget is
        /// reported, with exactly that edit count, and no other is.
        #[test]
        fn occurrence_edits_are_minimal_per_position(
            pattern in prop::collection::vec(0u8..4, 1..=64usize),
            text in prop::collection::vec(0u8..4, 0..=200usize),
            k in 0usize..=70,
        ) {
            let (p, t) = (bases(pattern), bases(text));
            let want: Vec<Occurrence> = oracle_last_row(&p, &t)[1..]
                .iter()
                .enumerate()
                .filter(|&(_, &edits)| edits <= k)
                .map(|(end, &edits)| Occurrence { end, edits })
                .collect();
            prop_assert_eq!(filter_occurrences(&p, &t, k), want);
        }
    }

    #[test]
    fn a_budget_past_the_pattern_length_sweeps_no_further_row() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        let worker = std::thread::spawn(move || {
            let p = seq("ACGTACGTAC");
            let t = seq(&"GATTACACGTTCGTACGGAC".repeat(10));
            let at_m = filter_occurrences(&p, &t, p.len());
            let _ = tx.send(filter_occurrences(&p, &t, usize::MAX) == at_m);
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(same) => {
                assert!(same, "rows past the pattern length changed the occurrences");
                worker.join().expect("the filter returned");
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("watchdog: the filter swept rows past the pattern length")
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("the filter dropped its sender"))
            }
        }
    }

    #[test]
    fn reused_workspace_filter_matches_fresh() {
        // Dissimilar consecutive calls through one workspace must agree
        // with fresh-workspace runs (stale scratch must not leak).
        let cases = [
            ("ACGTT", "GGGACGTTGGG", 2),
            ("AAAA", "CCCC", 4),
            ("ACGT", "ACGTACGT", 2),
            ("GATTACA", "GCATGCATGATTTACAGGG", 7),
            ("TGCA", "T", 4),
        ];
        let mut ws = AlignWorkspace::new();
        let mut occ = Vec::new();
        for (p, t, k) in cases {
            let (p, t) = (seq(p), seq(t));
            filter_occurrences_with(&mut ws, &p, &t, k, &mut occ);
            assert_eq!(occ, filter_occurrences(&p, &t, k), "{p:?} in {t:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not in 1..=64")]
    fn oversized_pattern_panics() {
        let p: Seq = std::iter::repeat_n(align_core::Base::A, 65).collect();
        let _ = filter_occurrences(&p, &seq("ACGT"), 1);
    }
}
