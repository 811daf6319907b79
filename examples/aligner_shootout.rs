//! Head-to-head of all aligners in the suite on the same pair set:
//! GenASM (improved / unimproved), the Edlib-style Myers baseline and
//! the KSW2-style affine-gap baseline.
//!
//! ```text
//! cargo run --release --example aligner_shootout
//! ```

use std::time::Instant;

use align_core::GlobalAligner;
use baselines::{Ksw2Aligner, MyersAligner};
use genasm_core::GenAsmAligner;
use genasm_suite::workload::mutated_tasks;

fn main() {
    let tasks = mutated_tasks(40, 4_000, 0.10, 7);
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
