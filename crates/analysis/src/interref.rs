//! Interval between consecutive MSS requests (Figure 7, §5.2.1).
//!
//! The paper finds the mean interval to be ~18 seconds, yet 90% of all
//! requests follow the previous one by less than 10 seconds: I/Os arrive
//! in clusters (multi-file programs and batch scripts).

use fmig_trace::time::Timestamp;
use fmig_trace::Request;
use serde::{Deserialize, Serialize};

use crate::hist::{LogHistogram, Welford};

/// Tracks gaps between consecutive requests to the whole MSS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GapTracker {
    last: Option<Timestamp>,
    gaps: LogHistogram,
    moments: Welford,
}

impl GapTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        GapTracker {
            last: None,
            // 1 second to ~1 day, 4 buckets per decade.
            gaps: LogHistogram::new(1.0, 100_000.0, 4),
            moments: Welford::new(),
        }
    }

    /// Feeds one record (errored requests still hit the MSS and count).
    pub fn observe(&mut self, rec: &impl Request) {
        if let Some(prev) = self.last {
            let gap = rec.start().seconds_since(prev).max(0) as f64;
            self.gaps.record_count(gap.max(0.5));
            self.moments.push(gap);
        }
        self.last = Some(rec.start());
    }

    /// Number of gaps observed (requests - 1).
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Mean gap in seconds (§5.2.1 reports ~18 s at full scale).
    pub fn mean_gap_s(&self) -> f64 {
        self.moments.mean()
    }

    /// Fraction of gaps at or below `s` seconds (Figure 7's CDF).
    pub fn fraction_le(&self, s: f64) -> f64 {
        self.gaps.fraction_le(s)
    }

    /// CDF points `(gap_s, fraction)` for rendering Figure 7.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        self.gaps
            .cdf_points()
            .into_iter()
            .map(|(edge, frac, _)| (edge, frac))
            .collect()
    }

    /// The underlying histogram.
    pub fn histogram(&self) -> &LogHistogram {
        &self.gaps
    }
}

impl Default for GapTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_trace::time::TRACE_EPOCH;
    use fmig_trace::{Endpoint, TraceRecord};

    fn at(t: i64) -> TraceRecord {
        TraceRecord::read(Endpoint::MssDisk, TRACE_EPOCH.add_secs(t), 1, "/f", 1)
    }

    #[test]
    fn gaps_are_differences_between_consecutive_requests() {
        let mut g = GapTracker::new();
        for t in [0, 3, 6, 306] {
            g.observe(&at(t));
        }
        assert_eq!(g.count(), 3);
        assert!((g.mean_gap_s() - 102.0).abs() < 1e-9);
        assert!((g.fraction_le(10.0) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn single_request_has_no_gap() {
        let mut g = GapTracker::new();
        g.observe(&at(5));
        assert_eq!(g.count(), 0);
        assert_eq!(g.mean_gap_s(), 0.0);
        assert_eq!(g.fraction_le(10.0), 0.0);
    }

    #[test]
    fn clustered_arrivals_match_figure_7_shape() {
        let mut g = GapTracker::new();
        let mut t = 0;
        // Bursts of 10 requests 3 s apart, bursts 5 minutes apart: ~90%
        // of gaps are short.
        for _ in 0..50 {
            for _ in 0..10 {
                g.observe(&at(t));
                t += 3;
            }
            t += 300;
        }
        let f = g.fraction_le(10.0);
        assert!(f > 0.85, "short-gap fraction {f}");
        let pts = g.cdf_points();
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_gaps_are_counted_not_dropped() {
        let mut g = GapTracker::new();
        g.observe(&at(7));
        g.observe(&at(7));
        assert_eq!(g.count(), 1);
        assert!((g.fraction_le(1.0) - 1.0).abs() < 1e-12);
    }
}
