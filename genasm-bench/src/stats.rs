//! Medians and exact nearest-rank percentiles.

/// Median of `values` (mean of the middle two for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    pub percentile: u32,
    pub samples: usize,
    pub beyond: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} of {} samples has only {} beyond it (10 needed)",
            self.percentile, self.samples, self.beyond
        )
    }
}

/// Exact nearest-rank percentile: the smallest sample with at least
/// `p`% of the samples at or below it. Refused unless at least ten
/// samples lie beyond it, because a tail of fewer does not repeat.
pub fn percentile(samples: &[f64], p: u32) -> Result<f64, TooFewSamples> {
    assert!((1..100).contains(&p), "percentile must be in 1..100");
    let n = samples.len();
    let rank = (n * p as usize).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if beyond < 10 {
        return Err(TooFewSamples {
            percentile: p,
            samples: n,
            beyond,
        });
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// [`percentile`] for a sample set that may be too small (a `--smoke`
/// run): falls back to the largest sample, which is only ever labelled
/// `smoke`.
pub fn percentile_or_max(samples: &[f64], p: u32) -> f64 {
    percentile(samples, p)
        .unwrap_or_else(|_| samples.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Ok(100.0));
        assert_eq!(percentile(&v, 95), Ok(190.0));
        // p99 of 200 leaves 2 beyond it.
        assert_eq!(
            percentile(&v, 99),
            Err(TooFewSamples {
                percentile: 99,
                samples: 200,
                beyond: 2
            })
        );
    }

    #[test]
    fn refuses_a_tail_of_fewer_than_ten() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        // p50 → rank 10, 9 beyond.
        assert!(percentile(&v, 50).is_err());
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Ok(10.0));
        assert_eq!(percentile_or_max(&v, 99), 20.0);
    }
}
