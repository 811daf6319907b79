//! The one workload builder: a reference, reads and their FASTA/FASTQ
//! bytes from a seed and a [`Spec`]. The seed feeds the genome and read
//! generators and nothing else; the program under test only ever
//! receives the bytes.

use align_core::{Base, Seq};
use genasm_core::bitvec::PatternMask;
use genasm_pipeline::PipelineConfig;
use mapper::CandidateParams;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use readsim::{
    contig_lengths, simulate_reads, write_fasta, write_fastq, ErrorModel, FastxRecord, Genome,
    GenomeConfig, ReadConfig,
};

/// Two contigs and two shards everywhere, so the thread count never
/// exceeds the two cores the sizing was done on.
pub const CONTIGS: usize = 2;
pub const SHARDS: usize = 2;
pub const THREADS: usize = 2;
/// Reads per `serve-sessions` request.
pub const SESSION_READS: usize = 8;
/// Closed-loop clients of `serve-sessions`.
pub const CLIENTS: usize = 2;

/// How a workload reaches the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `run_pipeline` + `CpuBackend::improved()`, one stream.
    OneShotCpu,
    /// `run_pipeline` + the harness wrapper around `GpuAligner`.
    OneShotGpuSim,
    /// A child `genasm serve`, closed loop of 8-read sessions.
    Serve,
}

/// What one workload is made of. A *pass* is one complete traversal of
/// the workload; a run repeats passes for `--seconds`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    pub genome_len: usize,
    /// Reads generated from the seed (interleaved across contigs).
    pub generated: usize,
    /// Leading reads of those that the workload uses.
    pub reads: usize,
    pub read_len: usize,
    pub error: f64,
    pub max_per_read: usize,
    /// Leading reads the single-threaded layer replay covers: a fixed
    /// count, so that its counts repeat exactly.
    pub replay_reads: usize,
    /// Divides the replay's comparison budgets: 1, or 10 for `--smoke`.
    pub budget_div: usize,
}

/// The four workloads. Names are fixed; later issues cite them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "clr-long",
        why: "10 kb reads at 10% CLR error: the paper's case, backend >=90% busy, so a kernel change shows here and a mapper change does not",
        driver: Driver::OneShotCpu,
        genome_len: 2_000_000,
        generated: 250,
        reads: 250,
        read_len: 10_000,
        error: 0.10,
        max_per_read: 8,
        replay_reads: 100,
        budget_div: 1,
    },
    Spec {
        name: "accurate-short",
        why: "300 bp reads at 0.5% error: mapper, parsing and formatting do the work and the kernel runs its tight-hint path, so a mapper change shows only here",
        driver: Driver::OneShotCpu,
        genome_len: 4_000_000,
        generated: 12_500,
        reads: 12_500,
        read_len: 300,
        error: 0.005,
        max_per_read: 2,
        replay_reads: 4_000,
        budget_div: 1,
    },
    Spec {
        name: "serve-sessions",
        why: "closed loop of 2 clients sending 8-read sessions to a child genasm serve: the only workload with server, session and linger-flushed batches on the blocking path",
        driver: Driver::Serve,
        genome_len: 2_000_000,
        generated: 4_800,
        reads: 4_800,
        read_len: 1_000,
        error: 0.08,
        // Not the 100 of `genasm serve`: the few repeat reads that get
        // 100 candidates do most of the aligning then, and how many of
        // them a seed deals moves a pass's work by +-10%.
        max_per_read: 8,
        replay_reads: 400,
        budget_div: 1,
    },
    Spec {
        name: "gpu-sim-long",
        why: "the first 80 reads of clr-long through the simulated GPU: keeps host speed of the simulator apart from modelled device time",
        driver: Driver::OneShotGpuSim,
        genome_len: 2_000_000,
        generated: 250,
        reads: 80,
        read_len: 10_000,
        error: 0.10,
        max_per_read: 8,
        replay_reads: 100,
        budget_div: 1,
    },
];

impl Spec {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().find(|s| s.name == name).cloned()
    }

    /// The same workload at ~1/50 of the reads on a tenth of the
    /// genome: a self-test of the harness, never a measurement.
    pub fn smoke(&self) -> Spec {
        let per = CONTIGS * SESSION_READS;
        let shrink = |n: usize| (n / 50).max(1).div_ceil(per) * per;
        Spec {
            genome_len: self.genome_len / 10,
            generated: shrink(self.generated),
            reads: shrink(self.reads).min(shrink(self.generated)),
            replay_reads: shrink(self.replay_reads),
            budget_div: 10,
            ..self.clone()
        }
    }

    /// Candidate parameters of this workload.
    pub fn params(&self) -> CandidateParams {
        CandidateParams {
            max_per_read: self.max_per_read,
            ..CandidateParams::default()
        }
    }

    /// The pinned pipeline geometry (the defaults of `genasm serve`,
    /// with two shards).
    pub fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            batch_bases: 256 * 1024,
            queue_depth: 8,
            dispatchers: 1,
            shards: SHARDS,
            shard_overlap: 256,
            params: self.params(),
            trace: None,
            explain: None,
        }
    }
}

/// One simulated read as the checks need it.
#[derive(Debug, Clone)]
pub struct Read {
    pub seq: Seq,
    /// Strand it was sampled from (first guess of the CIGAR check).
    pub reverse: bool,
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub spec: Spec,
    /// `(name, sequence)` per contig.
    pub contigs: Vec<(String, Seq)>,
    pub reads: Vec<Read>,
    /// The reference as FASTA bytes.
    pub fasta: Vec<u8>,
    /// The reads as FASTQ bytes, in read order.
    pub fastq: Vec<u8>,
    /// `fastq[offsets[i]..offsets[i + 1]]` is read `i`'s record.
    pub offsets: Vec<usize>,
}

/// Read `i` is named `r<i>`, so a record finds its read without a map.
pub fn read_name(i: usize) -> String {
    format!("r{i:06}")
}

/// Invert [`read_name`].
pub fn read_index(name: &str) -> Option<usize> {
    name.strip_prefix('r')?.parse().ok()
}

impl Workload {
    /// Generate `spec` from `seed`. Same seed, same bytes.
    pub fn generate(spec: &Spec, seed: u64) -> Workload {
        let lens = contig_lengths(spec.genome_len, CONTIGS);
        let per_contig = spec.generated.div_ceil(CONTIGS);
        let mut contigs = Vec::new();
        let mut by_contig = Vec::new();
        // Disjoint generator seeds per (seed, contig), so neighbouring
        // seeds share nothing.
        let sub_seed = |k: usize| seed.wrapping_mul(256).wrapping_add(k as u64);
        for (ci, &len) in lens.iter().enumerate() {
            let genome = Genome::generate(&GenomeConfig::human_like(len, sub_seed(ci)));
            by_contig.push(simulate_reads(
                &genome,
                &ReadConfig {
                    count: per_contig,
                    length: spec.read_len,
                    errors: ErrorModel::pacbio_clr(spec.error),
                    rc_fraction: 0.5,
                    seed: sub_seed(128 + ci),
                },
            ));
            contigs.push((format!("chr{}", ci + 1), genome.seq));
        }
        // Interleave the contigs' reads, so that any prefix of the
        // workload looks like the whole.
        let mut reads = Vec::with_capacity(spec.reads);
        let mut fastq = Vec::new();
        let mut offsets = vec![0];
        'fill: for i in 0..per_contig {
            for sim in by_contig.iter().map(|c| &c[i]) {
                if reads.len() == spec.reads {
                    break 'fill;
                }
                let rec =
                    FastxRecord::fastq(&read_name(reads.len()), sim.seq.clone(), sim.qual.clone());
                write_fastq(&mut fastq, &[rec]).expect("writing to a Vec cannot fail");
                offsets.push(fastq.len());
                reads.push(Read {
                    seq: sim.seq.clone(),
                    reverse: sim.reverse,
                });
            }
        }
        let mut fasta = Vec::new();
        let records: Vec<FastxRecord> = contigs
            .iter()
            .map(|(name, seq)| FastxRecord::fasta(name, seq.clone()))
            .collect();
        write_fasta(&mut fasta, &records).expect("writing to a Vec cannot fail");
        Workload {
            spec: spec.clone(),
            contigs,
            reads,
            fasta,
            fastq,
            offsets,
        }
    }

    /// The first `n` reads as a workload of their own.
    pub fn prefix(&self, n: usize) -> Workload {
        let n = n.min(self.reads.len());
        Workload {
            spec: Spec {
                reads: n,
                ..self.spec.clone()
            },
            contigs: self.contigs.clone(),
            reads: self.reads[..n].to_vec(),
            fasta: self.fasta.clone(),
            fastq: self.fastq_of(0, n).to_vec(),
            offsets: self.offsets[..=n].to_vec(),
        }
    }

    /// The FASTQ bytes of reads `from..to`.
    pub fn fastq_of(&self, from: usize, to: usize) -> &[u8] {
        &self.fastq[self.offsets[from]..self.offsets[to]]
    }

    /// The requests of the closed loop: `(first read, one past last)`.
    pub fn sessions(&self) -> Vec<(usize, usize)> {
        (0..self.reads.len())
            .step_by(SESSION_READS)
            .map(|a| (a, (a + SESSION_READS).min(self.reads.len())))
            .collect()
    }
}

/// One 64x64 window with `errors` planted substitutions: the inputs of
/// the `window_engine` bench, generated the same way from the same
/// seeds so the two report on the same windows.
pub fn window_inputs(errors: usize, seed: u64) -> (PatternMask, Vec<u8>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let q: Seq = {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..64)
            .map(|_| Base::from_code(rng.gen_range(0..4)))
            .collect()
    };
    let mut t: Vec<u8> = (0..64).map(|i| q.get_code(i)).collect();
    for _ in 0..errors {
        let p = rng.gen_range(0..t.len());
        t[p] = (t[p] + rng.gen_range(1..4u8)) % 4;
    }
    let pm = PatternMask::new_reversed_window(&q, 0, 64);
    t.reverse();
    (pm, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let spec = Spec::by_name("serve-sessions").unwrap().smoke();
        let a = Workload::generate(&spec, 7);
        let b = Workload::generate(&spec, 7);
        let c = Workload::generate(&spec, 8);
        assert_eq!(a.fasta, b.fasta);
        assert_eq!(a.fastq, b.fastq);
        assert_ne!(a.fasta, c.fasta);
        assert_ne!(a.fastq, c.fastq);
        assert_eq!(a.reads.len(), spec.reads);
        assert_eq!(a.offsets.len(), spec.reads + 1);
    }

    #[test]
    fn gpu_workload_is_a_prefix_of_clr_long() {
        let long = Workload::generate(&Spec::by_name("clr-long").unwrap().smoke(), 3);
        let gpu = Workload::generate(&Spec::by_name("gpu-sim-long").unwrap().smoke(), 3);
        assert_eq!(gpu.fasta, long.fasta);
        assert!(gpu.reads.len() <= long.reads.len());
        assert_eq!(gpu.fastq, long.fastq_of(0, gpu.reads.len()));
    }

    #[test]
    fn names_round_trip_and_sessions_tile_the_reads() {
        assert_eq!(read_index(&read_name(1234)), Some(1234));
        assert_eq!(read_index("chr1"), None);
        let w = Workload::generate(&Spec::by_name("serve-sessions").unwrap().smoke(), 1);
        let s = w.sessions();
        assert_eq!(s.first().unwrap().0, 0);
        assert_eq!(s.last().unwrap().1, w.reads.len());
        assert!(s.windows(2).all(|p| p[0].1 == p[1].0));
    }
}
