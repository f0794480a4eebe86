//! Dynamic file-size distributions (Figure 10).
//!
//! Figure 10 plots four cumulative curves over the size of each
//! *transfer* (a file counts once per access): files read, files written,
//! data read, data written. The paper's headline: 40% of all requests are
//! for files of 1 MB or less, yet such files carry under 1% of the data —
//! and writes show a bump near 8 MB.

use fmig_trace::{Direction, Request};
use serde::{Deserialize, Serialize};

use crate::hist::LogHistogram;

/// Per-access size distributions, split by direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicSizes {
    read: LogHistogram,
    write: LogHistogram,
}

impl DynamicSizes {
    /// Creates empty distributions (1 KB – 400 MB, 4 buckets/decade).
    pub fn new() -> Self {
        DynamicSizes {
            read: LogHistogram::new(1e3, 4.0e8, 4),
            write: LogHistogram::new(1e3, 4.0e8, 4),
        }
    }

    /// Feeds one successful record.
    pub fn observe(&mut self, rec: &impl Request) {
        let h = match rec.direction() {
            Direction::Read => &mut self.read,
            Direction::Write => &mut self.write,
        };
        h.record_weighted_by_value(rec.file_size().max(1) as f64);
    }

    /// The histogram for one direction.
    pub fn histogram(&self, dir: Direction) -> &LogHistogram {
        match dir {
            Direction::Read => &self.read,
            Direction::Write => &self.write,
        }
    }

    /// Fraction of accesses (either direction) at or below `bytes`.
    pub fn fraction_le(&self, bytes: f64) -> f64 {
        let total = self.read.count() + self.write.count();
        if total == 0 {
            return 0.0;
        }
        let hits = self.read.fraction_le(bytes) * self.read.count() as f64
            + self.write.fraction_le(bytes) * self.write.count() as f64;
        hits / total as f64
    }

    /// Fraction of transferred bytes in accesses at or below `bytes`.
    pub fn data_fraction_le(&self, bytes: f64) -> f64 {
        let total = self.read.total_weight() + self.write.total_weight();
        if total <= 0.0 {
            return 0.0;
        }
        (self.read.weight_fraction_le(bytes) * self.read.total_weight()
            + self.write.weight_fraction_le(bytes) * self.write.total_weight())
            / total
    }

    /// Mean transfer size in MB for one direction (Table 3's averages).
    pub fn mean_mb(&self, dir: Direction) -> f64 {
        self.histogram(dir).mean() / 1e6
    }

    /// Figure 10's four curves as `(edge_bytes, files_read, files_written,
    /// data_read, data_written)` cumulative fractions.
    pub fn curves(&self) -> Vec<(f64, f64, f64, f64, f64)> {
        // Union of non-empty edges from both histograms.
        let mut edges: Vec<f64> = self
            .read
            .cdf_points()
            .into_iter()
            .chain(self.write.cdf_points())
            .map(|(e, _, _)| e)
            .collect();
        edges.sort_by(|a, b| a.partial_cmp(b).expect("finite or inf edges"));
        edges.dedup();
        edges
            .into_iter()
            .map(|e| {
                let q = if e.is_finite() { e } else { f64::MAX };
                (
                    e,
                    self.read.fraction_le(q),
                    self.write.fraction_le(q),
                    self.read.weight_fraction_le(q),
                    self.write.weight_fraction_le(q),
                )
            })
            .collect()
    }
}

impl Default for DynamicSizes {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_trace::time::TRACE_EPOCH;
    use fmig_trace::{Endpoint, TraceRecord};

    fn read(size: u64) -> TraceRecord {
        TraceRecord::read(Endpoint::MssDisk, TRACE_EPOCH, size, "/f", 1)
    }

    fn write(size: u64) -> TraceRecord {
        TraceRecord::write(Endpoint::MssDisk, TRACE_EPOCH, size, "/f", 1)
    }

    #[test]
    fn per_direction_histograms() {
        let mut d = DynamicSizes::new();
        d.observe(&read(500_000));
        d.observe(&read(80_000_000));
        d.observe(&write(8_000_000));
        assert_eq!(d.histogram(Direction::Read).count(), 2);
        assert_eq!(d.histogram(Direction::Write).count(), 1);
        assert!((d.fraction_le(1e6) - 1.0 / 3.0).abs() < 1e-9);
        assert!((d.mean_mb(Direction::Write) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn small_requests_carry_little_data() {
        let mut d = DynamicSizes::new();
        for _ in 0..40 {
            d.observe(&read(500_000)); // 40 small reads
        }
        for _ in 0..60 {
            d.observe(&read(100_000_000)); // 60 large reads
        }
        // 40% of requests are <=1MB, but a sliver of the bytes.
        assert!((d.fraction_le(1e6) - 0.4).abs() < 1e-9);
        assert!(d.data_fraction_le(1e6) < 0.01);
    }

    #[test]
    fn curves_are_monotone_and_complete() {
        let mut d = DynamicSizes::new();
        for s in [1_000u64, 100_000, 5_000_000, 80_000_000, 199_000_000] {
            d.observe(&read(s));
            d.observe(&write(s / 2));
        }
        let curves = d.curves();
        assert!(!curves.is_empty());
        let last = curves.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-12 && (last.2 - 1.0).abs() < 1e-12);
        for w in curves.windows(2) {
            assert!(w[0].1 <= w[1].1 && w[0].3 <= w[1].3);
        }
    }

    #[test]
    fn empty_is_zero() {
        let d = DynamicSizes::new();
        assert_eq!(d.fraction_le(1e6), 0.0);
        assert_eq!(d.data_fraction_le(1e6), 0.0);
        assert!(d.curves().is_empty());
    }
}
