//! Synthetic genome generation.
//!
//! The paper maps simulated reads against the human genome. We cannot
//! ship GRCh38, so we synthesize genomes that preserve the two
//! properties the evaluation pipeline actually depends on:
//!
//! 1. **local composition structure** — GC content drifts along the
//!    genome (first-order Markov base process with a slowly wandering
//!    GC target), so minimizer densities vary like in real genomes;
//! 2. **repeat structure** — planted repeat families (near-identical
//!    copies with a few percent divergence) make the mapper emit
//!    *multiple candidate locations per read*, which is what produced
//!    the paper's 138,929 candidates from 500 reads (~278 per read with
//!    `minimap2 -P`).

use align_core::{Base, Seq};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Specification of one planted repeat family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeatFamily {
    /// Length of the repeat unit in bases.
    pub unit_len: usize,
    /// Number of copies scattered over the genome.
    pub copies: usize,
    /// Per-base divergence between copies (substitutions), `0.0..0.5`.
    pub divergence: f64,
}

/// Configuration for [`Genome::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct GenomeConfig {
    /// Total genome length in bases.
    pub length: usize,
    /// Mean GC content of the background process.
    pub gc_mean: f64,
    /// How strongly GC wanders (standard deviation of the drift step).
    pub gc_drift: f64,
    /// Planted repeat families.
    pub repeats: Vec<RepeatFamily>,
    /// RNG seed — generation is fully deterministic given the config.
    pub seed: u64,
}

impl GenomeConfig {
    /// A laptop-scale stand-in for a human-genome mapping target:
    /// 2 Mbp with two repeat families sized so that a 10 kbp read
    /// overlapping a repeat maps to many candidate locations.
    pub fn human_like(length: usize, seed: u64) -> GenomeConfig {
        GenomeConfig {
            length,
            gc_mean: 0.41, // human genome average
            gc_drift: 0.02,
            repeats: vec![
                RepeatFamily {
                    unit_len: 6_000,
                    copies: (length / 40_000).max(2),
                    divergence: 0.02,
                },
                RepeatFamily {
                    unit_len: 300, // SINE/Alu-like
                    copies: (length / 4_000).max(4),
                    divergence: 0.08,
                },
            ],
            seed,
        }
    }

    /// A plain repeat-free genome (unique mapping).
    pub fn plain(length: usize, seed: u64) -> GenomeConfig {
        GenomeConfig {
            length,
            gc_mean: 0.5,
            gc_drift: 0.0,
            repeats: Vec::new(),
            seed,
        }
    }
}

/// Split a total reference length into `contigs` deliberately
/// *unequal* parts (weights `1..=contigs`, remainder to the largest):
/// multi-contig workloads should never accidentally test only the
/// equal-sizes case — real assemblies are wildly skewed, and equal
/// contigs would mask coordinate bugs that cancel out by symmetry.
pub fn contig_lengths(total: usize, contigs: usize) -> Vec<usize> {
    let n = contigs.max(1);
    let weight_sum = n * (n + 1) / 2;
    let mut lens: Vec<usize> = (1..=n).map(|i| total * i / weight_sum).collect();
    let assigned: usize = lens.iter().sum();
    *lens.last_mut().expect("n >= 1") += total - assigned;
    lens
}

/// A generated genome plus provenance of the planted repeats.
#[derive(Debug, Clone)]
pub struct Genome {
    /// The sequence.
    pub seq: Seq,
    /// `(family index, start position)` of each planted repeat copy.
    pub planted: Vec<(usize, usize)>,
}

impl Genome {
    /// Generate a genome from `config`.
    pub fn generate(config: &GenomeConfig) -> Genome {
        assert!(config.length > 0, "genome length must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut bases: Vec<Base> = Vec::with_capacity(config.length);

        // Background: wandering-GC base process.
        let mut gc = config.gc_mean;
        for i in 0..config.length {
            if i % 1_000 == 0 && config.gc_drift > 0.0 {
                // Mean-reverting random walk of the local GC target.
                let step: f64 = rng.gen_range(-1.0..1.0) * config.gc_drift;
                gc += step + 0.1 * (config.gc_mean - gc);
                gc = gc.clamp(0.2, 0.8);
            }
            let base = if rng.gen_bool(gc) {
                if rng.gen_bool(0.5) {
                    Base::G
                } else {
                    Base::C
                }
            } else if rng.gen_bool(0.5) {
                Base::A
            } else {
                Base::T
            };
            bases.push(base);
        }

        // Plant repeat families.
        let mut planted = Vec::new();
        for (fi, fam) in config.repeats.iter().enumerate() {
            if fam.unit_len == 0 || fam.unit_len >= config.length {
                continue;
            }
            // Family consensus.
            let consensus: Vec<Base> = (0..fam.unit_len)
                .map(|_| Base::from_code(rng.gen_range(0..4)))
                .collect();
            for _ in 0..fam.copies {
                let start = rng.gen_range(0..config.length - fam.unit_len);
                for (off, &cb) in consensus.iter().enumerate() {
                    let b = if rng.gen_bool(fam.divergence) {
                        Base::from_code(rng.gen_range(0..4))
                    } else {
                        cb
                    };
                    bases[start + off] = b;
                }
                planted.push((fi, start));
            }
        }

        Genome {
            seq: bases.into_iter().collect(),
            planted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenomeConfig::human_like(50_000, 42);
        let a = Genome::generate(&cfg);
        let b = Genome::generate(&cfg);
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.planted, b.planted);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Genome::generate(&GenomeConfig::plain(10_000, 1));
        let b = Genome::generate(&GenomeConfig::plain(10_000, 2));
        assert_ne!(a.seq, b.seq);
    }

    #[test]
    fn gc_content_tracks_target() {
        let cfg = GenomeConfig {
            length: 200_000,
            gc_mean: 0.41,
            gc_drift: 0.02,
            repeats: Vec::new(),
            seed: 7,
        };
        let g = Genome::generate(&cfg);
        let gc = g.seq.gc_content();
        assert!((gc - 0.41).abs() < 0.05, "gc = {gc}");
    }

    #[test]
    fn repeats_are_planted_and_similar() {
        let cfg = GenomeConfig {
            length: 100_000,
            gc_mean: 0.5,
            gc_drift: 0.0,
            repeats: vec![RepeatFamily {
                unit_len: 500,
                copies: 4,
                divergence: 0.02,
            }],
            seed: 3,
        };
        let g = Genome::generate(&cfg);
        assert_eq!(g.planted.len(), 4);
        // Any two copies should be much closer to each other than random
        // sequences (expected ~4% difference vs 75% for random).
        let (_, s1) = g.planted[0];
        let (_, s2) = g.planted[1];
        let a = g.seq.slice(s1, 500);
        let b = g.seq.slice(s2, 500);
        let ham = a.hamming(&b).unwrap();
        assert!(
            ham < 50,
            "planted copies differ in {ham}/500 positions (overlap or bug?)"
        );
    }

    #[test]
    fn contig_lengths_sum_and_are_unequal() {
        for (total, n) in [(120_000usize, 3usize), (90_001, 4), (10, 1), (7, 3)] {
            let lens = contig_lengths(total, n);
            assert_eq!(lens.len(), n);
            assert_eq!(lens.iter().sum::<usize>(), total);
        }
        let lens = contig_lengths(120_000, 3);
        assert!(lens[0] < lens[1] && lens[1] < lens[2], "{lens:?}");
    }

    #[test]
    fn genome_length_is_exact() {
        let g = Genome::generate(&GenomeConfig::human_like(12_345, 9));
        assert_eq!(g.seq.len(), 12_345);
    }
}
