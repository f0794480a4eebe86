//! One-pass driver feeding every analysis of the study.
//!
//! [`Analyzer`] owns one instance of each figure/table analysis and
//! routes records appropriately: errored references count toward the
//! error census and the global request-gap distribution (they did reach
//! the MSS) but are excluded from everything else, exactly as in §5.1.
//!
//! Its entry is [`Analyzer::observe_file`]: a request plus the slot of
//! the file it names, as a generated workload streams them, with the
//! file's path rendered only when the census first sees its slot.
//! [`Analyzer::observe`] takes rendered [`TraceRecord`]s (a decoded
//! trace file) and maps each path to a slot of its own first, so one
//! analyzer is fed through one of the two entries, never both.

use std::borrow::Borrow;
use std::collections::HashMap;

use fmig_trace::{Request, TraceRecord, TraceStats};

use crate::dirs::DirStats;
use crate::filetrack::IdFileTracker;
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
    pub files: IdFileTracker,
    /// Figure 10: per-access size distributions.
    pub dynamic_sizes: DynamicSizes,
    /// Figure 12 / Table 4: directory census.
    pub dirs: DirStats,
    /// Figure 3 / Table 3 latency rows (needs annotated latencies).
    pub latency: LatencyAnalysis,
    /// Path → slot for [`Analyzer::observe`], in first-appearance order.
    paths: HashMap<Box<str>, u32>,
}

impl Analyzer {
    /// Creates an empty analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one request for the file in slot `file` (ignored when the
    /// request errored) to every relevant analysis. `path` renders the
    /// slot's MSS path; it is called once per slot, on the slot's first
    /// successful request, whose size the directory census keeps.
    pub fn observe_file<P: AsRef<str>>(
        &mut self,
        file: u32,
        rec: &impl Request,
        path: impl FnOnce(u32) -> P,
    ) {
        self.stats.observe(rec);
        self.gaps.observe(rec);
        if rec.error().is_some() {
            return;
        }
        self.hourly.observe(rec);
        self.weekly.observe(rec);
        self.weeks.observe(rec);
        if self.files.observe(file, rec) {
            self.dirs.add_file(path(file).as_ref(), rec.file_size());
        }
        self.dynamic_sizes.observe(rec);
        self.latency.observe(rec);
    }

    /// Feeds one rendered record: its path names its file.
    pub fn observe(&mut self, rec: &TraceRecord) {
        let file = if rec.is_ok() {
            // Look up before inserting: a known path costs no allocation.
            match self.paths.get(rec.mss_path.as_str()) {
                Some(&slot) => slot,
                None => {
                    let slot = self.paths.len() as u32;
                    self.paths.insert(rec.mss_path.as_str().into(), slot);
                    slot
                }
            }
        } else {
            u32::MAX
        };
        self.observe_file(file, rec, |_| rec.mss_path.as_str());
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
    fn the_path_entry_and_the_slot_entry_agree_record_for_record() {
        // Revisits, a re-write at a new size, an errored request, and
        // slots handed out in an order first appearance would not give.
        let at = |t: i64| TRACE_EPOCH.add_secs(t);
        let mut gone = ok_read(70, "/never-there");
        gone.error = Some(ErrorKind::FileNotFound);
        let trace = [
            (
                7,
                TraceRecord::write(Endpoint::MssDisk, at(0), 10, "/u/a", 1),
            ),
            (2, ok_read(50, "/v/b")),
            (7, ok_read(60, "/u/a")),
            (u32::MAX, gone),
            (
                7,
                TraceRecord::write(Endpoint::MssDisk, at(9 * HOUR), 30, "/u/a", 1),
            ),
            (2, ok_read(10 * HOUR, "/v/b")),
            (4, ok_read(10 * HOUR + 5, "/v/c")),
            (2, ok_read(10 * HOUR + 9, "/v/b")),
        ];
        let mut by_path = Analyzer::new();
        let mut by_slot = Analyzer::new();
        let mut rendered = Vec::new();
        for (slot, rec) in &trace {
            by_path.observe(rec);
            by_slot.observe_file(*slot, rec, |f| {
                rendered.push(f);
                rec.mss_path.clone()
            });
            assert_eq!(by_path.stats, by_slot.stats);
            assert_eq!(by_path.gaps, by_slot.gaps);
            assert_eq!(by_path.files.file_count(), by_slot.files.file_count());
            assert_eq!(by_path.files.total_bytes(), by_slot.files.total_bytes());
            assert_eq!(
                by_path.files.repeats_within(),
                by_slot.files.repeats_within()
            );
            assert_eq!(by_path.files.intervals(), by_slot.files.intervals());
            assert_eq!(
                by_path.files.reference_count_cdf(),
                by_slot.files.reference_count_cdf()
            );
            assert_eq!(by_path.dirs, by_slot.dirs);
            assert_eq!(by_path.latency, by_slot.latency);
        }
        // One rendering per file, on its first successful request; the
        // directory census keeps that request's size, not the re-write's.
        assert_eq!(rendered, [7, 2, 4]);
        assert_eq!(by_slot.dirs.file_count(), 3);
        assert_eq!(by_slot.dirs.dir_count(), 2);
        assert_eq!(
            by_slot.dirs.data_in_dirs_larger_than(1),
            2_000_000.0 / 2_000_010.0
        );
        assert_eq!(by_slot.files.total_bytes(), 30 + 1_000_000 + 1_000_000);
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
