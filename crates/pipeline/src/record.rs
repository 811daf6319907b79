//! The output record shared by `genasm align`, `genasm pipeline`, and
//! the alignment server.
//!
//! All paths must produce *byte-identical* output on the same
//! workload, so there is exactly one formatter per format: this
//! module. The native TSV row is tab-separated:
//!
//! ```text
//! qname  qlen  tname  tstart  tend  edit_distance  cigar  identity
//! ```
//!
//! `identity` is matches / alignment columns ([`Alignment::column_identity`])
//! printed with four decimals. [`AlignRecord::parse_tsv`] inverts the
//! formatter (used by tests and any downstream tooling).
//!
//! [`AlignRecord::to_paf`] renders the same record as a standard PAF
//! row (minimap2 convention: 12 mandatory columns plus `NM:i:` and
//! `cg:Z:` tags), selected via [`OutputFormat`] on every front end
//! (`--format tsv|paf` on the CLI, `SET format` on the server
//! protocol). [`AlignRecord::parse_paf`] inverts it. Coordinates in
//! both formats refer to the *oriented* query (the mapper
//! reverse-complements reverse-strand reads before alignment); the PAF
//! strand column records which orientation that was.
//!
//! Name columns (`qname`, `tname`) are backslash-escaped on write
//! (`\t`, `\n`, `\r`, `\\`) so a read name containing a tab or newline
//! cannot corrupt the row structure; the parsers unescape them and
//! reject malformed escapes. Names without those characters are
//! emitted byte-for-byte unchanged, so the escaping is invisible to
//! the determinism contract.

use std::fmt::Write;

use align_core::{Alignment, Cigar};

/// Escape a name field for TSV: `\` → `\\`, tab → `\t`, newline →
/// `\n`, carriage return → `\r`. Ordinary names (no specials) are
/// returned unchanged.
pub fn escape_name(s: &str) -> std::borrow::Cow<'_, str> {
    if !s.contains(['\\', '\t', '\n', '\r']) {
        return std::borrow::Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    std::borrow::Cow::Owned(out)
}

/// Invert [`escape_name`]; rejects dangling or unknown escapes with a
/// clear error.
pub fn unescape_name(s: &str) -> Result<String, String> {
    if !s.contains('\\') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                return Err(format!(
                    "bad escape sequence '\\{other}' in name field {s:?}"
                ))
            }
            None => return Err(format!("dangling backslash in name field {s:?}")),
        }
    }
    Ok(out)
}

/// One output row of `align` / `pipeline`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignRecord {
    /// Read name.
    pub qname: String,
    /// Read length in bases.
    pub qlen: usize,
    /// Reference name.
    pub tname: String,
    /// Total reference length in bases (PAF column 7; not part of the
    /// TSV row, so [`AlignRecord::parse_tsv`] cannot recover it).
    pub tsize: usize,
    /// Window start on the reference.
    pub tstart: usize,
    /// Window end on the reference (exclusive).
    pub tend: usize,
    /// True when the aligned query was the reverse complement of the
    /// original read (PAF strand `-`; not part of the TSV row).
    pub reverse: bool,
    /// Unit edit distance of the alignment.
    pub edit_distance: usize,
    /// The alignment path.
    pub cigar: Cigar,
    /// Matches / alignment columns.
    pub identity: f64,
}

impl AlignRecord {
    /// Build a record from a borrowed alignment and its task
    /// coordinates (clones the CIGAR; see [`AlignRecord::from_alignment`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        qname: &str,
        qlen: usize,
        tname: &str,
        tsize: usize,
        tstart: usize,
        tlen: usize,
        reverse: bool,
        aln: &Alignment,
    ) -> AlignRecord {
        AlignRecord::from_alignment(
            qname,
            qlen,
            tname,
            tsize,
            tstart,
            tlen,
            reverse,
            aln.clone(),
        )
    }

    /// Build a record from an alignment it takes over, moving the CIGAR
    /// instead of copying it.
    #[allow(clippy::too_many_arguments)]
    pub fn from_alignment(
        qname: &str,
        qlen: usize,
        tname: &str,
        tsize: usize,
        tstart: usize,
        tlen: usize,
        reverse: bool,
        aln: Alignment,
    ) -> AlignRecord {
        AlignRecord {
            qname: qname.to_string(),
            qlen,
            tname: tname.to_string(),
            tsize,
            tstart,
            tend: tstart + tlen,
            reverse,
            edit_distance: aln.edit_distance,
            identity: aln.column_identity(),
            cigar: aln.cigar,
        }
    }

    /// The deterministic per-read ordering, for `sort_by`: best
    /// distance first, then reference position. The CIGAR is rendered
    /// only to break a tie between equal-cost candidates of one locus,
    /// so the order is total without formatting every row.
    pub fn cmp_best_first(&self, other: &AlignRecord) -> std::cmp::Ordering {
        (self.edit_distance, self.tstart, self.tend)
            .cmp(&(other.edit_distance, other.tstart, other.tend))
            .then_with(|| self.cigar.to_string().cmp(&other.cigar.to_string()))
    }

    /// Format as one TSV row (no trailing newline). Name columns are
    /// escaped so tabs/newlines in read names cannot break the row.
    pub fn to_tsv(&self) -> String {
        let mut row = String::with_capacity(64 + 4 * self.cigar.runs().len());
        let _ = write!(
            row,
            "{}\t{}\t{}\t{}\t{}\t{}\t",
            escape_name(&self.qname),
            self.qlen,
            escape_name(&self.tname),
            self.tstart,
            self.tend,
            self.edit_distance,
        );
        self.cigar.write_to(&mut row);
        let _ = write!(row, "\t{:.4}", self.identity);
        row
    }

    /// `self.to_tsv().len()` without rendering the row: what the sink
    /// books per delivered row, counted from the digits.
    pub fn tsv_len(&self) -> usize {
        let digits = |n: usize| n.checked_ilog10().map_or(1, |d| d as usize + 1);
        // Each escaped character grows by the backslash before it.
        let name = |s: &str| s.len() + s.matches(['\\', '\t', '\n', '\r']).count();
        let cigar: usize = self
            .cigar
            .runs()
            .iter()
            .map(|&(n, _)| digits(n as usize) + 1)
            .sum();
        let numbers = [self.qlen, self.tstart, self.tend, self.edit_distance];
        let tabs = 7;
        name(&self.qname)
            + name(&self.tname)
            + numbers.into_iter().map(digits).sum::<usize>()
            + cigar
            + format!("{:.4}", self.identity).len()
            + tabs
    }

    /// Parse a row produced by [`AlignRecord::to_tsv`]. The TSV row
    /// does not carry `tsize` or strand, so those come back as `0` and
    /// forward; use PAF when they matter downstream.
    pub fn parse_tsv(line: &str) -> Result<AlignRecord, String> {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() != 8 {
            return Err(format!("expected 8 columns, got {}", cols.len()));
        }
        let num = |i: usize| -> Result<usize, String> {
            cols[i]
                .parse()
                .map_err(|_| format!("bad number in column {}: {:?}", i + 1, cols[i]))
        };
        let cigar = Cigar::parse(cols[6]).map_err(|e| format!("bad CIGAR: {e}"))?;
        let identity: f64 = cols[7]
            .parse()
            .map_err(|_| format!("bad identity: {:?}", cols[7]))?;
        Ok(AlignRecord {
            qname: unescape_name(cols[0])?,
            qlen: num(1)?,
            tname: unescape_name(cols[2])?,
            tsize: 0,
            tstart: num(3)?,
            tend: num(4)?,
            reverse: false,
            edit_distance: num(5)?,
            cigar,
            identity,
        })
    }

    /// Format as one PAF row (no trailing newline), minimap2
    /// convention: 12 mandatory columns, then `NM:i:` (edit distance)
    /// and `cg:Z:` (CIGAR) tags. Query coordinates refer to the
    /// oriented query; the strand column records the orientation.
    /// Mapping quality is not computed by this suite, so column 12 is
    /// the PAF "missing" value 255.
    pub fn to_paf(&self) -> String {
        let (m, x, i, d) = self.cigar.op_counts();
        let mut row = String::with_capacity(96 + 4 * self.cigar.runs().len());
        let _ = write!(
            row,
            "{}\t{}\t0\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t255\tNM:i:{}\tcg:Z:",
            escape_name(&self.qname),
            self.qlen,
            self.cigar.query_len(),
            if self.reverse { '-' } else { '+' },
            escape_name(&self.tname),
            self.tsize,
            self.tstart,
            self.tend,
            m,
            m + x + i + d,
            self.edit_distance,
        );
        self.cigar.write_to(&mut row);
        row
    }

    /// Parse a row produced by [`AlignRecord::to_paf`]. Requires the
    /// `cg:Z:` tag (the CIGAR carries the alignment path); `NM:i:`
    /// falls back to the CIGAR's edit cost when absent.
    pub fn parse_paf(line: &str) -> Result<AlignRecord, String> {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 12 {
            return Err(format!(
                "expected at least 12 PAF columns, got {}",
                cols.len()
            ));
        }
        let num = |i: usize| -> Result<usize, String> {
            cols[i]
                .parse()
                .map_err(|_| format!("bad number in column {}: {:?}", i + 1, cols[i]))
        };
        let reverse = match cols[4] {
            "+" => false,
            "-" => true,
            other => return Err(format!("bad strand column: {other:?}")),
        };
        let mut cigar = None;
        let mut nm = None;
        for tag in &cols[12..] {
            if let Some(cg) = tag.strip_prefix("cg:Z:") {
                cigar = Some(Cigar::parse(cg).map_err(|e| format!("bad cg tag: {e}"))?);
            } else if let Some(v) = tag.strip_prefix("NM:i:") {
                nm = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("bad NM tag: {v:?}"))?,
                );
            }
        }
        let cigar = cigar.ok_or_else(|| "missing cg:Z: tag".to_string())?;
        let matches = num(9)?;
        let block = num(10)?;
        if block == 0 {
            return Err("zero alignment block length".to_string());
        }
        Ok(AlignRecord {
            qname: unescape_name(cols[0])?,
            qlen: num(1)?,
            tname: unescape_name(cols[5])?,
            tsize: num(6)?,
            tstart: num(7)?,
            tend: num(8)?,
            reverse,
            edit_distance: nm.unwrap_or_else(|| cigar.edit_cost()),
            identity: matches as f64 / block as f64,
            cigar,
        })
    }
}

/// The output formats every front end (CLI `--format`, server
/// `SET format`) can render an [`AlignRecord`] in. Exactly one
/// formatter exists per format, so any two paths configured the same
/// way are byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// The suite's native 8-column TSV ([`AlignRecord::to_tsv`]).
    #[default]
    Tsv,
    /// Standard PAF with `NM:i:`/`cg:Z:` tags ([`AlignRecord::to_paf`]).
    Paf,
}

impl OutputFormat {
    /// Every format with its CLI/protocol name.
    pub const ALL: [(OutputFormat, &'static str); 2] =
        [(OutputFormat::Tsv, "tsv"), (OutputFormat::Paf, "paf")];

    /// Render one record as a line in this format (no newline).
    pub fn line(&self, rec: &AlignRecord) -> String {
        match self {
            OutputFormat::Tsv => rec.to_tsv(),
            OutputFormat::Paf => rec.to_paf(),
        }
    }
}

impl std::str::FromStr for OutputFormat {
    type Err = ParseFormatError;

    fn from_str(s: &str) -> Result<OutputFormat, ParseFormatError> {
        OutputFormat::ALL
            .iter()
            .find(|(_, name)| *name == s)
            .map(|&(fmt, _)| fmt)
            .ok_or_else(|| ParseFormatError {
                given: s.to_string(),
            })
    }
}

impl std::fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (_, name) = OutputFormat::ALL
            .iter()
            .find(|(fmt, _)| fmt == self)
            .expect("every format is in OutputFormat::ALL");
        f.write_str(name)
    }
}

/// Error for an unrecognized output format name; lists the valid ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormatError {
    /// What the user typed.
    pub given: String,
}

impl std::fmt::Display for ParseFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown format '{}'; valid formats are ", self.given)?;
        for (i, (_, name)) in OutputFormat::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "'{name}'")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseFormatError {}

#[cfg(test)]
mod tests {
    use super::*;
    use align_core::Seq;

    fn aligned(q: &str, t: &str) -> Alignment {
        let q = Seq::from_ascii(q.as_bytes()).unwrap();
        let t = Seq::from_ascii(t.as_bytes()).unwrap();
        align_core::nw_align(&q, &t)
    }

    /// Shorthand for the tests that don't care about tsize/strand.
    fn rec(
        qname: &str,
        qlen: usize,
        tname: &str,
        tstart: usize,
        tlen: usize,
        aln: &Alignment,
    ) -> AlignRecord {
        AlignRecord::new(qname, qlen, tname, 5_000, tstart, tlen, false, aln)
    }

    #[test]
    fn tsv_round_trip() {
        let aln = aligned("ACGTACGT", "ACGAACGT");
        let rec = rec("read1", 8, "chr1", 100, 8, &aln);
        let line = rec.to_tsv();
        let back = AlignRecord::parse_tsv(&line).unwrap();
        assert_eq!(back.qname, "read1");
        assert_eq!(back.qlen, 8);
        assert_eq!(back.tname, "chr1");
        assert_eq!(back.tstart, 100);
        assert_eq!(back.tend, 108);
        assert_eq!(back.edit_distance, aln.edit_distance);
        assert_eq!(back.cigar, aln.cigar);
        assert!((back.identity - aln.column_identity()).abs() < 1e-3);
    }

    #[test]
    fn identity_formats_with_four_decimals() {
        let aln = aligned("ACGT", "ACGT");
        let rec = rec("r", 4, "t", 0, 4, &aln);
        assert!(rec.to_tsv().ends_with("\t1.0000"));
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(AlignRecord::parse_tsv("too\tfew").is_err());
        let aln = aligned("ACGT", "ACGT");
        let mut line = rec("r", 4, "t", 0, 4, &aln).to_tsv();
        line = line.replace("4M", "4Q");
        assert!(AlignRecord::parse_tsv(&line).is_err());
    }

    #[test]
    fn names_with_tabs_and_spaces_round_trip() {
        let aln = aligned("ACGTACGT", "ACGAACGT");
        for name in [
            "plain name with spaces",
            "tab\tseparated\tname",
            "newline\nname",
            "cr\rname",
            "back\\slash\\t-literal",
            "all\t\n\r\\of them",
        ] {
            let rec = rec(name, 8, "chr 1\twith tab", 100, 8, &aln);
            let line = rec.to_tsv();
            // The row structure survives: still exactly 8 columns, one line.
            assert_eq!(line.split('\t').count(), 8, "{name:?} broke the row");
            assert_eq!(line.lines().count(), 1, "{name:?} broke the row");
            let back = AlignRecord::parse_tsv(&line)
                .unwrap_or_else(|e| panic!("{name:?} failed to parse back: {e}"));
            assert_eq!(back.qname, name);
            assert_eq!(back.tname, "chr 1\twith tab");
        }
    }

    #[test]
    fn plain_names_are_unescaped_bytes() {
        // The escaping must be invisible for ordinary names (the
        // determinism contract compares raw output bytes).
        let aln = aligned("ACGT", "ACGT");
        let rec = rec("read_1 suffix", 4, "chr1", 0, 4, &aln);
        assert!(rec.to_tsv().starts_with("read_1 suffix\t4\tchr1\t"));
    }

    #[test]
    fn malformed_escapes_are_rejected_with_clear_errors() {
        let aln = aligned("ACGT", "ACGT");
        let line = rec("r", 4, "t", 0, 4, &aln).to_tsv();
        let bad = line.replacen("r\t", "bad\\x\t", 1);
        let err = AlignRecord::parse_tsv(&bad).unwrap_err();
        assert!(err.contains("bad escape sequence"), "{err}");
        let dangling = line.replacen("r\t", "trailing\\\t", 1);
        let err = AlignRecord::parse_tsv(&dangling).unwrap_err();
        assert!(err.contains("dangling backslash"), "{err}");
    }

    #[test]
    fn paf_round_trip_preserves_every_field() {
        let aln = aligned("ACGTACGT", "ACGAACGT");
        for reverse in [false, true] {
            let rec = AlignRecord::new("read1", 8, "chr1", 90_000, 100, 8, reverse, &aln);
            let line = rec.to_paf();
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 14, "12 mandatory + NM + cg: {line}");
            assert_eq!(cols[2], "0", "qstart");
            assert_eq!(cols[4], if reverse { "-" } else { "+" });
            assert_eq!(cols[6], "90000", "tsize is PAF column 7");
            assert_eq!(cols[11], "255", "mapq is the PAF missing value");
            let back = AlignRecord::parse_paf(&line).unwrap();
            assert_eq!(back, rec, "PAF round trip must be lossless");
        }
    }

    #[test]
    fn paf_columns_are_cigar_consistent() {
        let aln = aligned("ACGTACGT", "ACGAACGGT");
        let rec = AlignRecord::new("r", 8, "t", 500, 10, 9, false, &aln);
        let cols_line = rec.to_paf();
        let cols: Vec<&str> = cols_line.split('\t').collect();
        let (m, x, i, d) = rec.cigar.op_counts();
        assert_eq!(cols[3], rec.cigar.query_len().to_string(), "qend");
        assert_eq!(cols[9], m.to_string(), "matches");
        assert_eq!(cols[10], (m + x + i + d).to_string(), "block length");
        assert_eq!(cols[12], format!("NM:i:{}", rec.edit_distance));
        assert_eq!(cols[13], format!("cg:Z:{}", rec.cigar));
    }

    #[test]
    fn malformed_paf_rejected_with_clear_errors() {
        let aln = aligned("ACGT", "ACGT");
        let good = AlignRecord::new("r", 4, "t", 100, 0, 4, false, &aln).to_paf();
        assert!(AlignRecord::parse_paf("a\tb\tc")
            .unwrap_err()
            .contains("12"));
        let bad_strand = good.replacen("\t+\t", "\t?\t", 1);
        assert!(AlignRecord::parse_paf(&bad_strand)
            .unwrap_err()
            .contains("strand"));
        let no_cg = good.replace("cg:Z:", "xx:Z:");
        assert!(AlignRecord::parse_paf(&no_cg)
            .unwrap_err()
            .contains("cg:Z:"));
    }

    #[test]
    fn paf_names_are_escaped_like_tsv() {
        let aln = aligned("ACGTACGT", "ACGAACGT");
        let rec = AlignRecord::new("tab\tname", 8, "chr\t1", 1_000, 100, 8, true, &aln);
        let line = rec.to_paf();
        assert_eq!(line.split('\t').count(), 14, "escaping kept the row intact");
        let back = AlignRecord::parse_paf(&line).unwrap();
        assert_eq!(back.qname, "tab\tname");
        assert_eq!(back.tname, "chr\t1");
    }

    #[test]
    fn output_format_parses_and_lists_choices() {
        use std::str::FromStr;
        for (fmt, name) in OutputFormat::ALL {
            assert_eq!(OutputFormat::from_str(name).unwrap(), fmt);
            assert_eq!(fmt.to_string(), name);
        }
        let err = OutputFormat::from_str("sam").unwrap_err().to_string();
        assert!(err.contains("'sam'"), "{err}");
        assert!(err.contains("'tsv'") && err.contains("'paf'"), "{err}");

        let aln = aligned("ACGT", "ACGT");
        let r = rec("r", 4, "t", 0, 4, &aln);
        assert_eq!(OutputFormat::Tsv.line(&r), r.to_tsv());
        assert_eq!(OutputFormat::Paf.line(&r), r.to_paf());
    }

    #[test]
    fn cmp_best_first_orders_by_distance_then_position_then_cigar() {
        let good = rec("r", 8, "t", 5, 8, &aligned("ACGTACGT", "ACGTACGT"));
        let bad = rec("r", 8, "t", 0, 8, &aligned("ACGTACGT", "ACCTACGA"));
        let mut rows = [bad.clone(), good.clone()];
        rows.sort_by(AlignRecord::cmp_best_first);
        assert_eq!(rows, [good.clone(), bad.clone()]);

        // Same cost, same locus: the rendered CIGAR decides, whatever
        // the input order.
        let mut ins_first = bad.clone();
        ins_first.cigar = Cigar::parse("1I6M1D1X").unwrap();
        let mut del_first = bad.clone();
        del_first.cigar = Cigar::parse("1D6M1I1X").unwrap();
        for mut rows in [
            [ins_first.clone(), del_first.clone(), good.clone()],
            [del_first.clone(), good.clone(), ins_first.clone()],
        ] {
            rows.sort_by(AlignRecord::cmp_best_first);
            assert_eq!(rows, [good.clone(), del_first.clone(), ins_first.clone()]);
        }
    }

    #[test]
    fn tsv_len_is_the_rendered_length() {
        let aln = aligned("ACGTACGTACGTACGT", "ACGAACGTTACGTACG");
        let mut long_runs = rec("r", 123_456, "t", 0, 1_000_000, &aln);
        long_runs.cigar = Cigar::parse("9M10X99I100D4294967295M1X").unwrap();
        let mut odd_identity = rec("r", 8, "t", 0, 8, &aln);
        odd_identity.identity = 12.34567;
        for r in [
            rec("read1", 16, "chr1", 100, 16, &aln),
            rec("r", 0, "t", 0, 0, &aligned("ACGT", "ACGT")),
            rec("all\t\n\r\\of them", 16, "chr 1\twith tab", 99, 901, &aln),
            rec("näme", 9, "t", 9, 10, &aln),
            long_runs,
            odd_identity,
        ] {
            assert_eq!(r.tsv_len(), r.to_tsv().len(), "{}", r.to_tsv());
        }
    }
}
