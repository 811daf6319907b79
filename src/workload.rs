//! The evaluation workload, built as in the paper's Section II:
//! simulate a genome → simulate PacBio-like reads (PBSIM2's role) →
//! map them and collect **all** chains (minimap2 `-P`'s role) → hand
//! the candidate (read, reference-window) pairs to the aligners.
//! Beside it, [`mutated_tasks`]: synthetic pairs at a chosen error rate,
//! for the sweeps, the smoke tests and the examples.

use align_core::{AlignTask, Base, Seq, TaskBatch};
use mapper::{CandidateParams, MinimizerIndex};
use rand::prelude::*;
use readsim::{simulate_reads, Genome, GenomeConfig, ReadConfig, SimRead};

/// Workload scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~1 Mbp genome, 50 reads — seconds on a laptop core.
    Small,
    /// ~2 Mbp genome, 150 reads.
    Medium,
    /// ~4 Mbp genome, 500 reads of 10 kbp — the paper's read count.
    Paper,
}

impl Scale {
    /// Every scale with its CLI name, in size order.
    pub const ALL: [(Scale, &'static str); 3] = [
        (Scale::Small, "small"),
        (Scale::Medium, "medium"),
        (Scale::Paper, "paper"),
    ];

    /// Genome length for this scale.
    pub fn genome_len(&self) -> usize {
        match self {
            Scale::Small => 1_000_000,
            Scale::Medium => 2_000_000,
            Scale::Paper => 4_000_000,
        }
    }

    /// Read count for this scale.
    pub fn read_count(&self) -> usize {
        match self {
            Scale::Small => 50,
            Scale::Medium => 150,
            Scale::Paper => 500,
        }
    }

    /// Cap on aligned candidate tasks for the *timed* experiments (the
    /// quadratic KSW2 baseline on one host core sets the budget; all
    /// throughput numbers are per-base, so the cap does not bias
    /// ratios). `None` = align everything.
    pub fn task_cap(&self) -> Option<usize> {
        match self {
            Scale::Small => Some(400),
            Scale::Medium => Some(1_200),
            Scale::Paper => Some(4_000),
        }
    }

    /// Cap on tasks run through the (functionally simulated, hence
    /// host-time-bound) GPU kernels.
    pub fn gpu_task_cap(&self) -> usize {
        match self {
            Scale::Small => 96,
            Scale::Medium => 256,
            Scale::Paper => 512,
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = ParseScaleError;

    fn from_str(s: &str) -> Result<Scale, ParseScaleError> {
        Scale::ALL
            .iter()
            .find(|(_, name)| *name == s)
            .map(|&(scale, _)| scale)
            .ok_or_else(|| ParseScaleError {
                given: s.to_string(),
            })
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (_, name) = Scale::ALL
            .iter()
            .find(|(scale, _)| scale == self)
            .expect("every scale is in Scale::ALL");
        f.write_str(name)
    }
}

/// Error for an unrecognized scale name; lists the valid ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScaleError {
    /// What the user typed.
    pub given: String,
}

impl std::fmt::Display for ParseScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scale '{}'; valid scales are ", self.given)?;
        for (i, (_, name)) in Scale::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "'{name}'")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseScaleError {}

/// The generated workload: genome, reads, and candidate tasks.
pub struct Workload {
    /// The synthetic reference genome.
    pub genome: Genome,
    /// The simulated reads with provenance.
    pub reads: Vec<SimRead>,
    /// All candidate (read, window) alignment tasks (`-P` semantics).
    pub batch: TaskBatch,
    /// Candidates whose reference window overlaps the read's true
    /// origin (indices into `batch.tasks`).
    pub true_locus: Vec<usize>,
}

impl Workload {
    /// Build the workload deterministically.
    pub fn build(scale: Scale, seed: u64) -> Workload {
        let genome = Genome::generate(&GenomeConfig::human_like(scale.genome_len(), seed));
        let read_cfg = ReadConfig::paper_like(scale.read_count(), seed ^ 0x5eed);
        let reads = simulate_reads(&genome, &read_cfg);
        let index = MinimizerIndex::build(&genome.seq);
        let params = CandidateParams {
            max_per_read: 600,
            ..CandidateParams::default()
        };

        let mut batch = TaskBatch::new();
        for r in &reads {
            for t in mapper::candidates_for_read(r.id, &r.seq, &genome.seq, &index, &params) {
                batch.push(t);
            }
        }
        let true_locus = classify_true_locus(&batch.tasks, &reads);
        Workload {
            genome,
            reads,
            batch,
            true_locus,
        }
    }

    /// The timed subset of tasks for this scale: an even stride sample
    /// across the whole candidate set, so the subset preserves the
    /// true-locus/off-target mix instead of over-representing the first
    /// few reads.
    pub fn timed_tasks(&self, scale: Scale) -> Vec<AlignTask> {
        let n = self.batch.tasks.len();
        let cap = scale.task_cap().unwrap_or(n).min(n);
        if cap == 0 || n == 0 {
            return Vec::new();
        }
        let stride = (n as f64 / cap as f64).max(1.0);
        (0..cap)
            .map(|i| self.batch.tasks[(i as f64 * stride) as usize % n].clone())
            .collect()
    }

    /// One candidate per read: the one whose reference window overlaps
    /// the read's true origin the most (the "primary" mapping, which is
    /// what downstream tools keep). These are the pairs on which the
    /// aligner-quality experiment compares GenASM against the optimum.
    pub fn primary_tasks(&self) -> Vec<AlignTask> {
        let mut best: Vec<Option<(usize, usize)>> = vec![None; self.reads.len()]; // (overlap, idx)
        for (i, t) in self.batch.tasks.iter().enumerate() {
            let Some(read) = self.reads.get(t.read_id as usize) else {
                continue;
            };
            let ov_start = t.ref_pos.max(read.true_start);
            let ov_end = (t.ref_pos + t.target.len()).min(read.true_end);
            let overlap = ov_end.saturating_sub(ov_start);
            let slot = &mut best[t.read_id as usize];
            if slot.is_none_or(|(o, _)| overlap > o) {
                *slot = Some((overlap, i));
            }
        }
        best.iter()
            .flatten()
            .filter(|(o, _)| *o > 0)
            .map(|&(_, i)| self.batch.tasks[i].clone())
            .collect()
    }

    /// Candidates per read, on average.
    pub fn candidates_per_read(&self) -> f64 {
        if self.reads.is_empty() {
            return 0.0;
        }
        self.batch.len() as f64 / self.reads.len() as f64
    }
}

/// A (query, target) pair where the target is a CLR-style mutated copy
/// of the query (sub:ins:del ≈ 6:50:44).
pub fn mutated_pair(rng: &mut impl Rng, len: usize, error_rate: f64) -> (Seq, Seq) {
    let q: Vec<Base> = (0..len)
        .map(|_| Base::from_code(rng.gen_range(0..4)))
        .collect();
    let mut t = q.clone();
    let mut i = 0;
    while i < t.len() {
        if rng.gen_bool(error_rate) {
            let r: f64 = rng.gen();
            if r < 0.06 {
                t[i] = Base::from_code(rng.gen_range(0..4));
                i += 1;
            } else if r < 0.56 {
                t.insert(i, Base::from_code(rng.gen_range(0..4)));
                i += 2;
            } else {
                t.remove(i);
            }
        } else {
            i += 1;
        }
    }
    if t.is_empty() {
        t.push(Base::A);
    }
    (q.into_iter().collect(), t.into_iter().collect())
}

/// `n` [`mutated_pair`]s drawn from one `StdRng` seeded with `seed`, as
/// tasks numbered from 0.
pub fn mutated_tasks(n: usize, len: usize, error_rate: f64, seed: u64) -> Vec<AlignTask> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let (q, t) = mutated_pair(&mut rng, len, error_rate);
            AlignTask::new(i as u32, 0, q, t)
        })
        .collect()
}

/// Indices of tasks whose reference window overlaps at least half of
/// the read's true origin interval.
fn classify_true_locus(tasks: &[AlignTask], reads: &[SimRead]) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let Some(read) = reads.get(t.read_id as usize) else {
            continue;
        };
        let win_start = t.ref_pos;
        let win_end = t.ref_pos + t.target.len();
        let ov_start = win_start.max(read.true_start);
        let ov_end = win_end.min(read.true_end);
        let overlap = ov_end.saturating_sub(ov_start);
        if overlap * 2 >= read.true_end - read.true_start {
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!("small".parse(), Ok(Scale::Small));
        assert_eq!("paper".parse(), Ok(Scale::Paper));
        let err = "bogus".parse::<Scale>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("'bogus'"), "{msg}");
        for (_, name) in Scale::ALL {
            assert!(msg.contains(name), "error must list '{name}': {msg}");
        }
    }

    #[test]
    fn scale_display_roundtrips() {
        for (scale, name) in Scale::ALL {
            assert_eq!(scale.to_string(), name);
            assert_eq!(name.parse::<Scale>(), Ok(scale));
        }
    }

    #[test]
    fn mutated_tasks_repeat_per_seed_and_carry_their_error_rate() {
        let a = mutated_tasks(4, 2_000, 0.10, 3);
        let b = mutated_tasks(4, 2_000, 0.10, 3);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.target, y.target);
            let d = align_core::doubling_nw_distance(&x.query, &x.target);
            assert!(d > 50, "10% errors over 2kb must leave d > 50, got {d}");
            assert!(d < 600, "distance {d} implausibly high");
        }
    }

    #[test]
    fn tiny_pipeline_builds() {
        // A miniature custom pipeline to keep the test fast.
        let genome = Genome::generate(&GenomeConfig::human_like(120_000, 7));
        let read_cfg = readsim::ReadConfig {
            count: 5,
            length: 3_000,
            errors: readsim::ErrorModel::pacbio_clr(0.10),
            rc_fraction: 0.5,
            seed: 99,
        };
        let reads = simulate_reads(&genome, &read_cfg);
        let index = MinimizerIndex::build(&genome.seq);
        let params = CandidateParams::default();
        let mut n_candidates = 0;
        for r in &reads {
            let c = mapper::candidates_for_read(r.id, &r.seq, &genome.seq, &index, &params);
            n_candidates += c.len();
        }
        assert!(
            n_candidates >= reads.len(),
            "every read should map at least once, got {n_candidates}"
        );
    }

    #[test]
    fn true_locus_classification() {
        let genome = Genome::generate(&GenomeConfig::plain(60_000, 3));
        let read = readsim::SimRead {
            id: 0,
            seq: genome.seq.slice(10_000, 2_000),
            qual: vec![30; 2_000],
            true_start: 10_000,
            true_end: 12_000,
            reverse: false,
            errors_injected: 0,
        };
        let good = AlignTask::new(
            0,
            9_900,
            genome.seq.slice(9_900, 2_200),
            genome.seq.slice(9_900, 2_200),
        );
        let bad = AlignTask::new(
            0,
            40_000,
            genome.seq.slice(40_000, 2_200),
            genome.seq.slice(40_000, 2_200),
        );
        let idx = classify_true_locus(&[good, bad], &[read]);
        assert_eq!(idx, vec![0]);
    }
}
