//! The reducer every timed section goes through: the samples of one run
//! collapse to a median with min, max and n beside it.
//!
//! Medians, not means or minima: on the 2-vCPU sandbox this benchmark
//! was calibrated on, one slow repeat (a scheduler hiccup, a noisy
//! neighbour phase) moves a mean by its full size and a minimum rewards
//! the luckiest repeat; the median ignores both tails.

/// Median, extremes and sample count of one timed section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle sample (mean of the two middle ones for even `n`).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

/// Reduces `samples`; `None` for an empty slice or any NaN.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() || samples.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Some(Summary {
        median,
        min: sorted[0],
        max: sorted[n - 1],
        n,
    })
}

/// The median alone, for callers that already know the slice is sound.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples)
        .expect("median of a non-empty, NaN-free sample")
        .median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_medians_with_extremes() {
        let s = summarize(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 10.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (3.5, 1.0, 10.0, 4));
        let s = summarize(&[7.25]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (7.25, 7.25, 7.25, 1));
    }

    #[test]
    fn empty_and_nan_samples_are_refused() {
        assert_eq!(summarize(&[]), None);
        assert_eq!(summarize(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn one_outlier_does_not_move_the_median() {
        let calm = summarize(&[1.0, 1.01, 0.99, 1.02, 0.98]).unwrap();
        let spiked = summarize(&[1.0, 1.01, 0.99, 1.02, 9.0]).unwrap();
        assert!((calm.median - spiked.median).abs() <= 0.02);
        assert_eq!(spiked.max, 9.0);
    }
}
