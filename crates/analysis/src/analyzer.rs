//! One-pass driver feeding every analysis of the study.
//!
//! [`Analyzer`] owns one instance of each figure/table analysis and
//! routes records appropriately: errored references count toward the
//! error census and the global request-gap distribution (they did reach
//! the MSS) but are excluded from everything else, exactly as in §5.1.

use std::borrow::Borrow;

use fmig_trace::{TraceRecord, TraceStats};

use crate::dirs::DirStats;
use crate::filetrack::FileTracker;
use crate::interref::GapTracker;
use crate::latency::LatencyAnalysis;
use crate::sizes::DynamicSizes;
use crate::timeseries::{HourlyProfile, WeekSeries, WeeklyProfile};

/// All analyses of the paper, fed in a single pass.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    /// Table 3: references/GB/sizes/latency by direction and device.
    pub stats: TraceStats,
    /// Figure 4: hour-of-day transfer rates.
    pub hourly: HourlyProfile,
    /// Figure 5: day-of-week transfer rates.
    pub weekly: WeeklyProfile,
    /// Figure 6: week-by-week rates over the trace.
    pub weeks: WeekSeries,
    /// Figure 7: global interrequest gaps.
    pub gaps: GapTracker,
    /// Figures 8, 9, 11 and §6: per-file behaviour.
    pub files: FileTracker,
    /// Figure 10: per-access size distributions.
    pub dynamic_sizes: DynamicSizes,
    /// Figure 12 / Table 4: directory census.
    pub dirs: DirStats,
    /// Figure 3 / Table 3 latency rows (needs annotated latencies).
    pub latency: LatencyAnalysis,
}

impl Analyzer {
    /// Creates an empty analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one record to every relevant analysis.
    pub fn observe(&mut self, rec: &TraceRecord) {
        self.stats.observe(rec);
        self.gaps.observe(rec);
        if !rec.is_ok() {
            return;
        }
        self.hourly.observe(rec);
        self.weekly.observe(rec);
        self.weeks.observe(rec);
        self.files.observe(rec);
        self.dynamic_sizes.observe(rec);
        self.dirs.observe(rec);
        self.latency.observe(rec);
    }

    /// Convenience: analyzes an entire record stream, borrowed or owned
    /// (e.g. a generator).
    pub fn analyze(records: impl IntoIterator<Item = impl Borrow<TraceRecord>>) -> Self {
        let mut a = Self::new();
        for rec in records {
            a.observe(rec.borrow());
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_trace::time::{HOUR, TRACE_EPOCH};
    use fmig_trace::{Direction, Endpoint, ErrorKind};

    fn ok_read(t: i64, path: &str) -> TraceRecord {
        TraceRecord::read(
            Endpoint::MssDisk,
            TRACE_EPOCH.add_secs(t),
            1_000_000,
            path,
            1,
        )
    }

    #[test]
    fn routes_records_to_all_analyses() {
        let mut a = Analyzer::new();
        a.observe(&ok_read(10 * HOUR, "/u/d/x"));
        a.observe(&ok_read(10 * HOUR + 5, "/u/d/y"));
        assert_eq!(a.stats.total_references(), 2);
        assert_eq!(a.gaps.count(), 1);
        assert_eq!(a.files.file_count(), 2);
        assert_eq!(a.dirs.file_count(), 2);
        assert_eq!(a.hourly.requests_at(Direction::Read, 10), 2);
        assert_eq!(a.dynamic_sizes.histogram(Direction::Read).count(), 2);
    }

    #[test]
    fn errors_count_only_where_the_paper_counts_them() {
        let mut a = Analyzer::new();
        let mut bad = ok_read(0, "/gone");
        bad.error = Some(ErrorKind::FileNotFound);
        a.observe(&bad);
        a.observe(&ok_read(10, "/u/d/x"));
        // Error census and gap tracker see it...
        assert_eq!(a.stats.total_errors(), 1);
        assert_eq!(a.gaps.count(), 1);
        // ...but no per-file or size analysis does.
        assert_eq!(a.files.file_count(), 1);
        assert_eq!(a.dirs.file_count(), 1);
        assert_eq!(a.stats.total_references(), 1);
    }

    #[test]
    fn analyze_helpers_agree() {
        let recs = vec![ok_read(0, "/a/b"), ok_read(5, "/a/c")];
        let by_ref = Analyzer::analyze(recs.iter());
        let by_val = Analyzer::analyze(recs.clone());
        assert_eq!(by_ref.stats, by_val.stats);
        assert_eq!(by_ref.files.file_count(), by_val.files.file_count());
    }
}
