//! Correctness checks on what the program emitted.

use std::io::Write;

use align_core::Alignment;
use genasm_pipeline::AlignRecord;

use crate::workload::{read_index, Workload};

/// FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut f = Fnv::default();
        f.update(bytes);
        f.finish()
    }
}

/// A writer that digests and counts what passes through it.
pub struct DigestWriter<W: Write> {
    inner: W,
    pub fnv: Fnv,
    pub bytes: u64,
}

impl<W: Write> DigestWriter<W> {
    pub fn new(inner: W) -> DigestWriter<W> {
        DigestWriter {
            inner,
            fnv: Fnv::default(),
            bytes: 0,
        }
    }
}

impl<W: Write> Write for DigestWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.fnv.update(&buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// What checking one output stream found.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OutputCheck {
    /// Distinct reads that emitted at least one record.
    pub reads_with_records: u64,
    /// Distinct reads with a record that failed a check.
    pub bad_reads: u64,
    pub first_error: Option<String>,
}

/// Check every TSV record of `output`: it names a read and a contig of
/// the workload, its CIGAR replays over the read and the reference
/// slice it claims and reproduces its edit count, and records arrive
/// in read order.
pub fn check_output(w: &Workload, output: &[u8]) -> OutputCheck {
    let mut out = OutputCheck::default();
    let mut last_read: Option<usize> = None;
    let mut last_bad: Option<usize> = None;
    for line in output.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let (read, verdict) = check_line(w, line, last_read);
        if read != last_read {
            out.reads_with_records += 1;
        }
        if let Err(e) = verdict {
            if read.is_none() || read != last_bad {
                out.bad_reads += 1;
            }
            last_bad = read;
            out.first_error.get_or_insert(e);
        }
        last_read = read.or(last_read);
    }
    out
}

fn check_line(
    w: &Workload,
    line: &[u8],
    last_read: Option<usize>,
) -> (Option<usize>, Result<(), String>) {
    let parsed = std::str::from_utf8(line)
        .map_err(|e| e.to_string())
        .and_then(AlignRecord::parse_tsv);
    let rec = match parsed {
        Ok(rec) => rec,
        Err(e) => return (None, Err(format!("unparsable record: {e}"))),
    };
    let Some(idx) = read_index(&rec.qname).filter(|&i| i < w.reads.len()) else {
        return (
            None,
            Err(format!("record names unknown read {}", rec.qname)),
        );
    };
    let verdict = (|| {
        if last_read.is_some_and(|last| idx < last) {
            return Err(format!("read {} emitted out of input order", rec.qname));
        }
        let read = &w.reads[idx];
        if rec.qlen != read.seq.len() {
            return Err(format!("read {}: qlen {} is wrong", rec.qname, rec.qlen));
        }
        let (_, contig) = w
            .contigs
            .iter()
            .find(|(name, _)| *name == rec.tname)
            .ok_or_else(|| format!("read {}: unknown contig {}", rec.qname, rec.tname))?;
        if rec.tstart > rec.tend || rec.tend > contig.len() {
            return Err(format!("read {}: window outside {}", rec.qname, rec.tname));
        }
        let target = contig.slice(rec.tstart, rec.tend - rec.tstart);
        let aln = Alignment {
            edit_distance: rec.edit_distance,
            cigar: rec.cigar.clone(),
        };
        // The TSV row carries no strand; start from the strand the
        // read was sampled from and fall back to the other.
        let rc = read.seq.reverse_complement();
        let (first, second) = if read.reverse {
            (&rc, &read.seq)
        } else {
            (&read.seq, &rc)
        };
        aln.check(first, &target)
            .or_else(|_| aln.check(second, &target))
            .map_err(|e| format!("read {}: {e}", rec.qname))
    })();
    (Some(idx), verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(Fnv::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::of(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_writer_counts_and_digests() {
        let mut w = DigestWriter::new(Vec::new());
        w.write_all(b"foo").unwrap();
        w.write_all(b"bar").unwrap();
        assert_eq!(w.bytes, 6);
        assert_eq!(w.fnv.finish(), Fnv::of(b"foobar"));
    }
}
