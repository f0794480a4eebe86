//! Histogram and moment primitives shared by the analyses.
//!
//! The paper's figures are cumulative distributions over quantities
//! spanning many orders of magnitude (file sizes from KB to 200 MB,
//! intervals from seconds to a year), so the workhorse here is a
//! logarithmically bucketed histogram with optional per-bucket weights
//! (bytes) for the "data" curves of Figures 10–12.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Log-bucketed histogram with per-bucket counts and weights.
///
/// Buckets cover `[lo, hi)` geometrically; values below `lo` land in the
/// first bucket and values at or above `hi` in a dedicated overflow
/// bucket, so no observation is dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    lo: f64,
    ratio: f64,
    /// `ratio.log10()`, taken once: every record divides by it.
    log_ratio: f64,
    counts: Vec<u64>,
    weights: Vec<f64>,
    total_count: u64,
    total_weight: f64,
    weight_sum_x: f64,
}

impl LogHistogram {
    /// Creates a histogram over `[lo, hi)` with the given number of
    /// buckets per decade.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `buckets_per_decade > 0`.
    pub fn new(lo: f64, hi: f64, buckets_per_decade: u32) -> Self {
        assert!(lo > 0.0 && hi > lo, "bad histogram range [{lo}, {hi})");
        assert!(
            buckets_per_decade > 0,
            "need at least one bucket per decade"
        );
        let decades = (hi / lo).log10();
        let n = (decades * buckets_per_decade as f64).ceil() as usize + 1;
        let ratio = 10f64.powf(1.0 / buckets_per_decade as f64);
        LogHistogram {
            lo,
            ratio,
            log_ratio: ratio.log10(),
            counts: vec![0; n + 1], // last slot is the overflow bucket
            weights: vec![0.0; n + 1],
            total_count: 0,
            total_weight: 0.0,
            weight_sum_x: 0.0,
        }
    }

    /// Records an observation with weight equal to its value
    /// (convenient for byte-weighted curves).
    pub fn record_weighted_by_value(&mut self, x: f64) {
        self.record(x, x);
    }

    /// Records an observation with unit weight.
    pub fn record_count(&mut self, x: f64) {
        self.record(x, 0.0);
    }

    /// Records an observation with an explicit weight.
    pub fn record(&mut self, x: f64, weight: f64) {
        let idx = self.bucket_of(x);
        self.counts[idx] += 1;
        self.weights[idx] += weight;
        self.total_count += 1;
        self.total_weight += weight;
        self.weight_sum_x += x;
    }

    fn bucket_of(&self, x: f64) -> usize {
        if x < self.lo {
            return 0;
        }
        let idx = (x / self.lo).log10() / self.log_ratio;
        (idx as usize + 1).min(self.counts.len() - 1)
    }

    /// Upper edge of bucket `i` (`inf` for the overflow bucket).
    pub fn bucket_edge(&self, i: usize) -> f64 {
        if i + 1 >= self.counts.len() {
            f64::INFINITY
        } else {
            self.lo * self.ratio.powi(i as i32)
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total_count
    }

    /// Sum of weights.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Mean of the observed values.
    pub fn mean(&self) -> f64 {
        if self.total_count == 0 {
            0.0
        } else {
            self.weight_sum_x / self.total_count as f64
        }
    }

    /// Fraction of observations at or below `x` (bucket-resolution).
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.total_count == 0 {
            return 0.0;
        }
        let idx = self.bucket_of(x);
        let hits: u64 = self.counts[..=idx].iter().sum();
        hits as f64 / self.total_count as f64
    }

    /// Fraction of total weight in observations at or below `x`.
    pub fn weight_fraction_le(&self, x: f64) -> f64 {
        if self.total_weight <= 0.0 {
            return 0.0;
        }
        let idx = self.bucket_of(x);
        let hits: f64 = self.weights[..=idx].iter().sum();
        hits / self.total_weight
    }

    /// Approximate `p`-quantile of the count distribution (bucket upper
    /// edge).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile {p} out of range");
        if self.total_count == 0 {
            return 0.0;
        }
        let target = (p * self.total_count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.bucket_edge(i);
            }
        }
        f64::INFINITY
    }

    /// Cumulative (edge, count-fraction, weight-fraction) points over
    /// non-empty buckets — the raw material for the paper's CDF figures.
    pub fn cdf_points(&self) -> Vec<(f64, f64, f64)> {
        let mut out = Vec::new();
        if self.total_count == 0 {
            return out;
        }
        let mut c_acc = 0u64;
        let mut w_acc = 0.0;
        for i in 0..self.counts.len() {
            if self.counts[i] == 0 && self.weights[i] == 0.0 {
                continue;
            }
            c_acc += self.counts[i];
            w_acc += self.weights[i];
            out.push((
                self.bucket_edge(i),
                c_acc as f64 / self.total_count as f64,
                if self.total_weight > 0.0 {
                    w_acc / self.total_weight
                } else {
                    0.0
                },
            ));
        }
        out
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different bucket layouts.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "layout mismatch");
        assert!((self.lo - other.lo).abs() < 1e-12, "layout mismatch");
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        for (a, b) in self.weights.iter_mut().zip(other.weights.iter()) {
            *a += b;
        }
        self.total_count += other.total_count;
        self.total_weight += other.total_weight;
        self.weight_sum_x += other.weight_sum_x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_hand_calculation() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic set is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert!((w.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.push(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn histogram_fractions() {
        let mut h = LogHistogram::new(1.0, 1000.0, 4);
        for x in [0.5, 2.0, 20.0, 200.0, 5000.0] {
            h.record_count(x);
        }
        assert_eq!(h.count(), 5);
        assert!((h.fraction_le(2.0) - 0.4).abs() < 1e-9);
        assert!((h.fraction_le(300.0) - 0.8).abs() < 1e-9);
        assert!((h.fraction_le(1e9) - 1.0).abs() < 1e-9);
        assert!((h.mean() - 1044.5).abs() < 1e-9);
    }

    #[test]
    fn weight_fractions_follow_bytes_not_counts() {
        let mut h = LogHistogram::new(1e3, 1e9, 4);
        // Many tiny files, one huge file: counts say "mostly small",
        // weights say "mostly large" — the Figure 11 phenomenon.
        for _ in 0..99 {
            h.record_weighted_by_value(1e4);
        }
        h.record_weighted_by_value(1e8);
        assert!(h.fraction_le(1e5) > 0.98);
        assert!(h.weight_fraction_le(1e5) < 0.02);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LogHistogram::new(1.0, 1e6, 8);
        for i in 1..=1000 {
            h.record_count(i as f64);
        }
        let q10 = h.quantile(0.1);
        let q50 = h.quantile(0.5);
        let q90 = h.quantile(0.9);
        assert!(q10 <= q50 && q50 <= q90, "{q10} {q50} {q90}");
        // Within a bucket's width of the true values.
        assert!((q50 / 500.0) < 1.55 && (q50 / 500.0) > 0.65, "median {q50}");
    }

    #[test]
    fn cdf_points_end_at_one() {
        let mut h = LogHistogram::new(1.0, 100.0, 2);
        for x in [1.0, 3.0, 10.0, 1e4] {
            h.record_weighted_by_value(x);
        }
        let pts = h.cdf_points();
        let last = pts.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-12);
        assert!((last.2 - 1.0).abs() < 1e-12);
        // Monotone non-decreasing fractions.
        for w in pts.windows(2) {
            assert!(w[0].1 <= w[1].1 && w[0].2 <= w[1].2);
        }
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = LogHistogram::new(1.0, 1e4, 4);
        let mut b = LogHistogram::new(1.0, 1e4, 4);
        let mut both = LogHistogram::new(1.0, 1e4, 4);
        for i in 1..200 {
            let x = (i * 37 % 9000) as f64 + 1.0;
            if i % 2 == 0 {
                a.record_weighted_by_value(x);
            } else {
                b.record_weighted_by_value(x);
            }
            both.record_weighted_by_value(x);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    #[should_panic(expected = "bad histogram range")]
    fn rejects_bad_range() {
        let _ = LogHistogram::new(10.0, 1.0, 4);
    }
}
