//! Shared workload builders for the Criterion benches.
//!
//! Every bench regenerates one row/family of the paper's evaluation;
//! the experiment ids (E1–E9, A1–A3) are tabulated in
//! `genasm_suite::experiments`, whose `repro` harness prints the
//! results. The builders here are deterministic so bench
//! numbers are comparable across runs.

#![forbid(unsafe_code)]

use align_core::{AlignTask, Base, Seq};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A (query, target) pair where the target is a CLR-style mutated copy
/// of the query (sub:ins:del ≈ 6:50:44).
pub fn mutated_pair(rng: &mut ChaCha8Rng, len: usize, error_rate: f64) -> (Seq, Seq) {
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

/// A deterministic batch of mutated pairs.
pub fn task_batch(count: usize, len: usize, error_rate: f64, seed: u64) -> Vec<AlignTask> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let (q, t) = mutated_pair(&mut rng, len, error_rate);
            AlignTask::new(i as u32, 0, q, t)
        })
        .collect()
}

/// A random sequence (for unrelated-pair stress cases).
pub fn random_seq(len: usize, seed: u64) -> Seq {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..len)
        .map(|_| Base::from_code(rng.gen_range(0..4)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_is_deterministic() {
        let a = task_batch(3, 500, 0.1, 9);
        let b = task_batch(3, 500, 0.1, 9);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.target, y.target);
        }
    }

    #[test]
    fn error_rate_shows_in_distance() {
        let tasks = task_batch(4, 2_000, 0.10, 3);
        for t in &tasks {
            let d = align_core::doubling_nw_distance(&t.query, &t.target);
            assert!(d > 50, "10% errors over 2kb must leave d > 50, got {d}");
            assert!(d < 600, "distance {d} implausibly high");
        }
    }
}
