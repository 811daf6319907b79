//! Head-to-head of all aligners in the suite on the same pair set:
//! GenASM (improved / unimproved), the Edlib-style Myers baseline and
//! the KSW2-style affine-gap baseline.
//!
//! ```text
//! cargo run --release --example aligner_shootout
//! ```

use std::time::Instant;

use align_core::{AlignTask, Base, GlobalAligner, Seq};
use baselines::{Ksw2Aligner, MyersAligner};
use genasm_core::GenAsmAligner;
use rand::prelude::*;

fn mutated_pair(rng: &mut StdRng, len: usize, error_rate: f64) -> (Seq, Seq) {
    let q: Vec<Base> = (0..len)
        .map(|_| Base::from_code(rng.gen_range(0..4)))
        .collect();
    let mut t = q.clone();
    let mut i = 0;
    while i < t.len() {
        if rng.gen_bool(error_rate) {
            match rng.gen_range(0..3) {
                0 => t[i] = Base::from_code(rng.gen_range(0..4)),
                1 => t.insert(i, Base::from_code(rng.gen_range(0..4))),
                _ => {
                    t.remove(i);
                }
            }
        }
        i += 1;
    }
    (q.into_iter().collect(), t.into_iter().collect())
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let tasks: Vec<AlignTask> = (0..40)
        .map(|i| {
            let (q, t) = mutated_pair(&mut rng, 4_000, 0.10);
            AlignTask::new(i, 0, q, t)
        })
        .collect();
    let bases: usize = tasks.iter().map(|t| t.query.len()).sum();
    println!(
        "aligning {} pairs ({} kb of query) at ~10% error\n",
        tasks.len(),
        bases / 1000
    );
    println!(
        "{:<22} {:>10} {:>12} {:>14}",
        "aligner", "wall ms", "Mbases/s", "total distance"
    );

    let aligners: Vec<Box<dyn GlobalAligner>> = vec![
        Box::new(GenAsmAligner::improved()),
        Box::new(GenAsmAligner::baseline()),
        Box::new(MyersAligner::new()),
        Box::new(Ksw2Aligner::new()),
    ];
    for aligner in &aligners {
        let start = Instant::now();
        let mut total = 0usize;
        for t in &tasks {
            let aln = aligner.align(&t.query, &t.target).expect("alignment");
            aln.check(&t.query, &t.target).expect("valid CIGAR");
            total += aln.edit_distance;
        }
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{:<22} {:>10.1} {:>12.2} {:>14}",
            aligner.name(),
            secs * 1e3,
            bases as f64 / secs / 1e6,
            total
        );
    }
    println!(
        "\nnote: GenASM distances can exceed the exact aligners' — its windowed\n\
         heuristic trades a small amount of optimality for linear time; the\n\
         accuracy experiment (repro accuracy) quantifies exactly how much."
    );
}
