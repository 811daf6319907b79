//! The Bitap bitvector engine: pattern bitmasks and the GenASM-DC
//! recurrence step.
//!
//! Conventions (GenASM's):
//!
//! * a **0 bit is active**: bit `j` of `R[d]` is 0 iff the pattern prefix
//!   `P[0..=j]` aligns to a suffix of the processed text with at most `d`
//!   edits;
//! * `PM[c]` has bit `j` = 0 iff `P[j] == c`;
//! * shifting left brings a 0 (active) into bit 0, which is what lets a
//!   match start at any text position (Bitap's free text prefix);
//! * the initial vector for row `d` (before any text character) is
//!   `!0 << d`: the first `d` pattern characters may be consumed by
//!   pattern-only edits.
//!
//! These functions are shared verbatim by the CPU aligner, the GPU
//! kernel and the occurrence filter, so they cannot drift apart: the
//! recurrence steps and the one sweep built on them ([`sweep_row0`],
//! [`sweep_rows`]: row 0, then row groups column by column) are the
//! only code outside the test oracles that computes GenASM-DC rows.

use align_core::Seq;

/// Maximum pattern window length: one bit per pattern position in a
/// 64-bit machine word.
pub const MAX_W: usize = 64;

/// Per-character pattern bitmasks for a pattern window of length `m <= 64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternMask {
    masks: [u64; 4],
    m: usize,
}

impl PatternMask {
    /// Build the masks for `pattern` (length must be `1..=64`).
    ///
    /// # Panics
    /// Panics if the pattern is empty or longer than [`MAX_W`].
    pub fn new(pattern: &Seq) -> PatternMask {
        Self::from_slice_fn(pattern.len(), |j| pattern.get_code(j))
    }

    /// Build the masks for the **reverse** of `pattern[start..start+len]`
    /// without materializing the reversed sequence (the windowed aligner
    /// processes reversed windows; see [`crate::engine`]).
    pub fn new_reversed_window(pattern: &Seq, start: usize, len: usize) -> PatternMask {
        Self::from_slice_fn(len, |j| pattern.get_code(start + len - 1 - j))
    }

    fn from_slice_fn(m: usize, code_at: impl Fn(usize) -> u8) -> PatternMask {
        assert!(
            (1..=MAX_W).contains(&m),
            "pattern window length {m} not in 1..=64"
        );
        let mut masks = [!0u64; 4];
        for j in 0..m {
            let c = code_at(j) as usize;
            masks[c] &= !(1u64 << j);
        }
        PatternMask { masks, m }
    }

    /// A length-1 all-mismatch mask, used only to give
    /// [`crate::workspace::AlignWorkspace`] an initial value before its
    /// first window is staged.
    pub(crate) fn placeholder() -> PatternMask {
        PatternMask {
            masks: [!0u64; 4],
            m: 1,
        }
    }

    /// The mask for text character code `c` (`0..=3`).
    #[inline(always)]
    pub fn get(&self, c: u8) -> u64 {
        self.masks[(c & 3) as usize]
    }

    /// Pattern window length.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.m
    }

    /// True for the (disallowed, but kept for API completeness) empty mask.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// The bit that signals a full-pattern solution (bit `m - 1`).
    #[inline(always)]
    pub fn solution_bit(&self) -> u64 {
        1u64 << (self.m - 1)
    }
}

/// Initial bitvector for error row `d`: the first `d` pattern characters
/// may already be consumed by pattern-only edits before any text.
#[inline(always)]
pub fn init_row(d: usize) -> u64 {
    if d >= 64 {
        0 // every prefix reachable with >= 64 pattern-only edits
    } else {
        !0u64 << d
    }
}

/// GenASM-DC recurrence for row 0 of column `i`:
/// `R[0][i] = (R[0][i-1] << 1) | PM[T[i]]` (matches only).
#[inline(always)]
pub fn step_row0(cur_prev: u64, pm: u64) -> u64 {
    (cur_prev << 1) | pm
}

/// GenASM-DC recurrence for row `d > 0` of column `i`.
///
/// * `below_prev` — `R[d-1][i-1]` (previous row, previous column),
/// * `below_cur`  — `R[d-1][i]`   (previous row, same column),
/// * `cur_prev`   — `R[d][i-1]`   (same row, previous column),
/// * `pm`         — `PM[T[i]]`.
///
/// The four 0-active contributions are combined with AND:
/// match `(cur_prev << 1) | pm`, substitution `below_prev << 1`,
/// text-consuming deletion `below_prev`, pattern-consuming insertion
/// `below_cur << 1`.
#[inline(always)]
pub fn step_row(below_prev: u64, below_cur: u64, cur_prev: u64, pm: u64) -> u64 {
    let mat = (cur_prev << 1) | pm;
    let sub = below_prev << 1;
    let del = below_prev;
    let ins = below_cur << 1;
    mat & sub & del & ins
}

/// The four edge contributions separately, in `(match, subst, del, ins)`
/// order: what [`sweep_rows`] stores for the *unimproved* GenASM-TB,
/// which reads all of them. Tests check `AND(edges) == step_row`.
#[inline(always)]
pub fn step_row_edges(below_prev: u64, below_cur: u64, cur_prev: u64, pm: u64) -> [u64; 4] {
    [
        (cur_prev << 1) | pm,
        below_prev << 1,
        below_prev,
        below_cur << 1,
    ]
}

/// One text column of a row group: `left` holds column i-1 of a
/// boundary row (`left[0]`) and of the `N - 1` rows below it going in,
/// and column i coming out; `boundary` is the boundary row's column i
/// going in and the group's bottom row coming out. Row r's old and new
/// value are row r+1's `below_prev` and `below_cur`.
#[inline(always)]
pub fn step_group<const N: usize>(left: &mut [u64; N], boundary: &mut u64, pmv: u64) {
    let (mut below_prev, mut below_cur) = (left[0], *boundary);
    left[0] = below_cur;
    for cur in &mut left[1..] {
        let val = step_row(below_prev, below_cur, *cur, pmv);
        (below_prev, below_cur, *cur) = (*cur, val, val);
    }
    *boundary = below_cur;
}

// In both sweeps a stored entry is `W` words: the row's value
// (`W == 1`, the compressed layout) or its `(match, subst, del, ins)`
// edge vectors (`W == 4`, the unimproved layout).

/// Row 0 of a window (matches only), column by column into `boundary`;
/// its entries at columns `cut..` go into `stored`, where the other
/// edge slots are inactive (all ones). Returns its last column.
#[inline]
pub fn sweep_row0<const W: usize>(
    boundary: &mut [u64],
    pm: &PatternMask,
    text_rev: &[u8],
    cut: usize,
    stored: &mut [[u64; W]],
) -> u64 {
    let mut cur = init_row(0);
    for (&c, b) in text_rev.iter().zip(boundary.iter_mut()) {
        cur = step_row0(cur, pm.get(c));
        *b = cur;
    }
    for (entry, &v) in stored.iter_mut().zip(&boundary[cut..]) {
        *entry = [!0; W];
        entry[0] = v;
    }
    cur
}

/// The `N - 1` rows below a boundary row, column by column with the
/// rows in registers ([`step_group`]): `left` holds column -1 of the
/// boundary row and of the rows below it going in (their init values)
/// and the last column coming out; `boundary` is the boundary row going
/// in and the bottom row coming out. The columns below `cut` are
/// computed, not stored; row `r + 1`'s entries at columns `cut..` go
/// into `stored[r]`.
#[inline]
pub fn sweep_rows<const N: usize, const S: usize, const W: usize>(
    left: &mut [u64; N],
    boundary: &mut [u64],
    pm: &PatternMask,
    text_rev: &[u8],
    cut: usize,
    stored: [&mut [[u64; W]]; S],
) {
    const { assert!(S + 1 == N && (W == 1 || W == 4)) };
    let (text_cut, text_kept) = text_rev.split_at(cut);
    let (bound_cut, bound_kept) = boundary.split_at_mut(cut);
    for (&c, b) in text_cut.iter().zip(bound_cut) {
        step_group(left, b, pm.get(c));
    }
    for (j, (&c, b)) in text_kept.iter().zip(bound_kept).enumerate() {
        let pmv = pm.get(c);
        if W == 1 {
            step_group(left, b, pmv);
            for r in 0..S {
                stored[r][j][0] = left[r + 1];
            }
        } else {
            let prev = *left;
            step_group(left, b, pmv);
            for r in 0..S {
                let edges = step_row_edges(prev[r], left[r], prev[r + 1], pmv);
                stored[r][j].copy_from_slice(&edges);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align_core::Seq;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn pattern_mask_marks_matches_active() {
        let pm = PatternMask::new(&seq("ACGA"));
        // bit j of PM[c] is 0 iff P[j]==c
        assert_eq!(pm.get(0) & 0b1111, 0b0110); // A at j=0 and j=3
        assert_eq!(pm.get(1) & 0b1111, 0b1101); // C at j=1
        assert_eq!(pm.get(2) & 0b1111, 0b1011); // G at j=2
        assert_eq!(pm.get(3) & 0b1111, 0b1111); // no T
                                                // bits beyond m are inactive (1)
        assert_eq!(pm.get(0) >> 4, !0u64 >> 4);
    }

    #[test]
    fn reversed_window_mask() {
        let s = seq("ACGTTT");
        // window [1..4) = "CGT", reversed = "TGC"
        let pm = PatternMask::new_reversed_window(&s, 1, 3);
        let direct = PatternMask::new(&seq("TGC"));
        assert_eq!(pm, direct);
    }

    #[test]
    fn solution_bit_matches_length() {
        let pm = PatternMask::new(&seq("ACG"));
        assert_eq!(pm.solution_bit(), 0b100);
        assert_eq!(pm.len(), 3);
    }

    #[test]
    #[should_panic(expected = "not in 1..=64")]
    fn empty_pattern_panics() {
        let _ = PatternMask::new(&Seq::new());
    }

    #[test]
    fn init_rows() {
        assert_eq!(init_row(0), !0u64);
        assert_eq!(init_row(1), !0u64 << 1);
        assert_eq!(init_row(3) & 0b111, 0);
        assert_eq!(init_row(64), 0);
        assert_eq!(init_row(100), 0);
    }

    #[test]
    fn exact_match_single_row() {
        // Row 0 alone finds exact occurrences, like classic Shift-Or.
        let p = seq("ACG");
        let t = seq("TACGT");
        let pm = PatternMask::new(&p);
        let mut r = init_row(0);
        let mut hits = Vec::new();
        for i in 0..t.len() {
            r = step_row0(r, pm.get(t.get_code(i)));
            if r & pm.solution_bit() == 0 {
                hits.push(i);
            }
        }
        assert_eq!(hits, vec![3]); // occurrence ends at text index 3
    }

    #[test]
    fn and_of_edges_equals_step() {
        let cases = [
            (
                0x0123_4567_89ab_cdefu64,
                0xfedc_ba98_7654_3210u64,
                0x00ff_00ff_00ff_00ffu64,
                0xaaaa_5555_aaaa_5555u64,
            ),
            (!0, !0, !0, !0),
            (0, 0, 0, 0),
        ];
        for (bp, bc, cp, pm) in cases {
            let edges = step_row_edges(bp, bc, cp, pm);
            let anded = edges.iter().fold(!0u64, |a, &e| a & e);
            assert_eq!(anded, step_row(bp, bc, cp, pm));
        }
    }

    #[test]
    fn one_substitution_found_in_row_one() {
        // pattern ACG vs text AGG: one substitution.
        let p = seq("ACG");
        let t = seq("AGG");
        let pm = PatternMask::new(&p);
        let (mut r0, mut r1) = (init_row(0), init_row(1));
        let mut solved_at = None;
        for i in 0..t.len() {
            let c = pm.get(t.get_code(i));
            let old0 = r0;
            let old1 = r1;
            r0 = step_row0(old0, c);
            r1 = step_row(old0, r0, old1, c);
            if i == t.len() - 1 {
                assert_ne!(r0 & pm.solution_bit(), 0, "no exact match");
                if r1 & pm.solution_bit() == 0 {
                    solved_at = Some(1);
                }
            }
        }
        assert_eq!(solved_at, Some(1));
    }
}
