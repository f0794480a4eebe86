//! Per-file reference tracking: Figures 8 and 9, Figure 11, and §6-b's
//! same-file repeat table.
//!
//! §5.3's method is applied verbatim: "this part of the analysis included
//! at most one read and one write from any eight hour period" — each
//! file's reads (writes) within eight hours of the last *counted* read
//! (write) are folded away before reference counts and interreference
//! intervals are computed. The raw repeats are retained separately,
//! because §6 uses them ("about one third of all requests came within
//! eight hours of another request for the same file"): each is counted
//! under every window of [`REPEAT_WINDOWS_H`] its gap fits, which is the
//! table `repro dedup` prints.
//!
//! The census itself is [`IdFileTracker`], a `Vec` of per-file state
//! indexed by a caller-assigned slot; [`FileTracker`] is the path-keyed
//! front that interns each `mss_path` to a slot and delegates. A slot
//! space and interned paths cannot meet on one accumulator: the front
//! owns its path map and lends the core out read-only, and the core has
//! no path method.

use std::collections::HashMap;
use std::ops::Deref;

use fmig_trace::time::{DAY, HOUR};
use fmig_trace::{Direction, Request, TraceRecord};
use serde::{Deserialize, Serialize};

use crate::hist::LogHistogram;

const DEDUP_WINDOW_S: i64 = 8 * HOUR;

/// §6-b's repeat windows, in hours: entry `i` of
/// [`IdFileTracker::repeats_within`] counts the raw requests that came
/// within `REPEAT_WINDOWS_H[i]` hours of the previous request for the
/// same file.
pub const REPEAT_WINDOWS_H: [i64; 5] = [1, 2, 4, 8, 24];

/// The eight-hour entry of [`REPEAT_WINDOWS_H`] (§6's "about one third").
const EIGHT_H: usize = 3;

/// Per-file running state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct FileState {
    size: u64,
    reads: u32,
    writes: u32,
    last_counted_read: i64,
    last_counted_write: i64,
    last_counted_any: i64,
    last_raw: i64,
}

/// "Never": far enough back that no request is within any window of it.
const NEVER: i64 = i64::MIN / 2;

impl FileState {
    /// A slot no request has named yet; `last_raw` leaves [`NEVER`] on
    /// the first one.
    const UNSEEN: FileState = FileState {
        size: 0,
        reads: 0,
        writes: 0,
        last_counted_read: NEVER,
        last_counted_write: NEVER,
        last_counted_any: NEVER,
        last_raw: NEVER,
    };
}

/// Aggregate per-file statistics for the whole trace, keyed by path.
///
/// Reads through to the [`IdFileTracker`] it fills (`Deref`), so every
/// aggregate is written once, there.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FileTracker {
    /// Path → slot, in first-appearance order. A map of its own, not a
    /// [`fmig_trace::FileTable`]: nothing here maps a slot back to its
    /// path, so each path is kept once.
    paths: HashMap<Box<str>, u32>,
    census: IdFileTracker,
}

impl FileTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one successful record.
    pub fn observe(&mut self, rec: &TraceRecord) {
        // Look up before inserting: a known path costs no allocation.
        let slot = match self.paths.get(rec.mss_path.as_str()) {
            Some(&slot) => slot,
            None => {
                let slot = self.paths.len() as u32;
                self.paths.insert(rec.mss_path.as_str().into(), slot);
                slot
            }
        };
        self.census.observe(slot, rec);
    }
}

impl Deref for FileTracker {
    type Target = IdFileTracker;

    fn deref(&self) -> &IdFileTracker {
        &self.census
    }
}

/// The per-file census, keyed by caller-assigned slot; see the module
/// docs. Memory is one entry per slot up to the highest one named.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdFileTracker {
    /// Per-slot state; slots no request named stay [`FileState::UNSEEN`]
    /// and count toward nothing.
    slots: Vec<FileState>,
    /// Slots named at least once.
    seen: usize,
    /// Interreference intervals between counted accesses, in seconds.
    intervals: LogHistogram,
    raw_requests: u64,
    /// Raw repeats by the narrowest window of [`REPEAT_WINDOWS_H`] their
    /// gap fits; [`IdFileTracker::repeats_within`] sums them up.
    repeats_by_window: [u64; REPEAT_WINDOWS_H.len()],
}

impl IdFileTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        IdFileTracker {
            slots: Vec::new(),
            seen: 0,
            // 1 minute to ~2 years.
            intervals: LogHistogram::new(60.0, 7.0e7, 4),
            raw_requests: 0,
            repeats_by_window: [0; REPEAT_WINDOWS_H.len()],
        }
    }

    /// Feeds one request for the file in slot `file`; errored requests
    /// name no file and are skipped.
    pub fn observe(&mut self, file: u32, rec: &impl Request) {
        if rec.error().is_some() {
            return;
        }
        let t = rec.start().as_unix();
        self.raw_requests += 1;
        if file as usize >= self.slots.len() {
            self.slots.resize(file as usize + 1, FileState::UNSEEN);
        }
        let state = &mut self.slots[file as usize];
        if state.last_raw == NEVER {
            self.seen += 1;
            state.size = rec.file_size();
        }
        // §6-b: the raw repeat's gap, by the narrowest window it fits.
        let gap = t - state.last_raw;
        if let Some(w) = REPEAT_WINDOWS_H.iter().position(|&h| gap <= h * HOUR) {
            self.repeats_by_window[w] += 1;
        }
        state.last_raw = t;
        // Writes may grow the file; keep the latest size.
        if rec.direction() == Direction::Write {
            state.size = rec.file_size();
        }
        // §5.3 dedup rule, per direction.
        let counted = match rec.direction() {
            Direction::Read => {
                if t - state.last_counted_read >= DEDUP_WINDOW_S {
                    state.reads += 1;
                    state.last_counted_read = t;
                    true
                } else {
                    false
                }
            }
            Direction::Write => {
                if t - state.last_counted_write >= DEDUP_WINDOW_S {
                    state.writes += 1;
                    state.last_counted_write = t;
                    true
                } else {
                    false
                }
            }
        };
        if counted {
            if state.last_counted_any != NEVER {
                let gap = (t - state.last_counted_any).max(60) as f64;
                self.intervals.record_count(gap);
            }
            state.last_counted_any = t;
        }
    }

    /// The files referenced so far, in slot order. Every aggregate
    /// below is a sum, a count or a sort over these, so none depends on
    /// how slots were numbered.
    fn files(&self) -> impl Iterator<Item = &FileState> {
        self.slots.iter().filter(|f| f.last_raw != NEVER)
    }

    /// Number of distinct files referenced.
    pub fn file_count(&self) -> usize {
        self.seen
    }

    /// Total referenced bytes (each file counted once at its final size).
    pub fn total_bytes(&self) -> u64 {
        self.files().map(|f| f.size).sum()
    }

    /// Average file size in MB (Table 4's "average file size").
    pub fn avg_file_mb(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / 1e6 / self.seen as f64
        }
    }

    /// Fraction of files satisfying a predicate over (reads, writes).
    pub fn fraction_where(&self, pred: impl Fn(u32, u32) -> bool) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        let hits = self.files().filter(|f| pred(f.reads, f.writes)).count();
        hits as f64 / self.seen as f64
    }

    /// Figure 8 headline: fraction of files with zero counted reads.
    pub fn never_read(&self) -> f64 {
        self.fraction_where(|r, _| r == 0)
    }

    /// Fraction of files with zero counted writes.
    pub fn never_written(&self) -> f64 {
        self.fraction_where(|_, w| w == 0)
    }

    /// Fraction accessed exactly once (§5.3: 57%).
    pub fn accessed_once(&self) -> f64 {
        self.fraction_where(|r, w| r + w == 1)
    }

    /// Fraction accessed exactly twice (§5.3: 19%).
    pub fn accessed_twice(&self) -> f64 {
        self.fraction_where(|r, w| r + w == 2)
    }

    /// Fraction written once and never read (§5.3: 44%).
    pub fn write_once_never_read(&self) -> f64 {
        self.fraction_where(|r, w| w == 1 && r == 0)
    }

    /// Fraction referenced more than `n` times (Figure 8's tail).
    pub fn referenced_more_than(&self, n: u32) -> f64 {
        self.fraction_where(move |r, w| r + w > n)
    }

    /// Median total reference count (the paper reports 1, versus
    /// Smith's 2 at SLAC).
    pub fn median_references(&self) -> u32 {
        if self.seen == 0 {
            return 0;
        }
        let mut counts: Vec<u32> = self.files().map(|f| f.reads + f.writes).collect();
        counts.sort_unstable();
        counts[counts.len() / 2]
    }

    /// CDF of per-file total reference counts `(count, fraction_le)`
    /// for Figure 8's "total" curve.
    pub fn reference_count_cdf(&self) -> Vec<(u32, f64)> {
        count_cdf(self.files().map(|f| f.reads + f.writes).collect())
    }

    /// Per-direction reference-count CDF for Figure 8's read/write curves.
    pub fn direction_count_cdf(&self, dir: Direction) -> Vec<(u32, f64)> {
        count_cdf(
            self.files()
                .map(|f| match dir {
                    Direction::Read => f.reads,
                    Direction::Write => f.writes,
                })
                .collect(),
        )
    }

    /// Fraction of counted per-file interreference intervals at or below
    /// `s` seconds (Figure 9; the paper reports 70% under one day).
    pub fn interval_fraction_le(&self, s: f64) -> f64 {
        self.intervals.fraction_le(s)
    }

    /// Fraction of intervals under one day.
    pub fn intervals_under_1d(&self) -> f64 {
        self.interval_fraction_le(DAY as f64)
    }

    /// The interval histogram (Figure 9's CDF).
    pub fn intervals(&self) -> &LogHistogram {
        &self.intervals
    }

    /// §6-b's table: for each window of [`REPEAT_WINDOWS_H`], the raw
    /// requests within it of the previous request for the same file.
    pub fn repeats_within(&self) -> [u64; REPEAT_WINDOWS_H.len()] {
        let mut total = 0;
        self.repeats_by_window.map(|n| {
            total += n;
            total
        })
    }

    /// Fraction of raw requests that `repeats` makes up (0 before any
    /// request).
    pub fn repeat_fraction(&self, repeats: u64) -> f64 {
        if self.raw_requests == 0 {
            0.0
        } else {
            repeats as f64 / self.raw_requests as f64
        }
    }

    /// §6: fraction of raw requests within eight hours of a previous
    /// request for the same file (paper: about one third).
    pub fn repeat_within_8h_fraction(&self) -> f64 {
        self.repeat_fraction(self.repeats_within()[EIGHT_H])
    }

    /// Static (per-file, counted once) size histogram for Figure 11.
    pub fn size_histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::new(1e3, 4.0e8, 4);
        for f in self.files() {
            h.record_weighted_by_value(f.size.max(1) as f64);
        }
        h
    }
}

impl Default for IdFileTracker {
    fn default() -> Self {
        Self::new()
    }
}

/// The run-length CDF of `counts`: each distinct count with the fraction
/// of entries at or below it, in ascending order.
fn count_cdf(mut counts: Vec<u32>) -> Vec<(u32, f64)> {
    counts.sort_unstable();
    let n = counts.len();
    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        let v = counts[i];
        let mut j = i;
        while j < n && counts[j] == v {
            j += 1;
        }
        out.push((v, j as f64 / n as f64));
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_trace::time::TRACE_EPOCH;
    use fmig_trace::Endpoint;

    fn read(path: &str, t: i64, size: u64) -> TraceRecord {
        TraceRecord::read(Endpoint::MssDisk, TRACE_EPOCH.add_secs(t), size, path, 1)
    }

    fn write(path: &str, t: i64, size: u64) -> TraceRecord {
        TraceRecord::write(Endpoint::MssDisk, TRACE_EPOCH.add_secs(t), size, path, 1)
    }

    #[test]
    fn dedup_folds_requests_within_eight_hours() {
        let mut ft = FileTracker::new();
        ft.observe(&read("/a", 0, 10));
        ft.observe(&read("/a", 100, 10)); // within 8h: not counted
        ft.observe(&read("/a", 9 * HOUR, 10)); // counted
        assert_eq!(ft.file_count(), 1);
        assert!((ft.fraction_where(|r, _| r == 2) - 1.0).abs() < 1e-12);
        // One counted interval (0 -> 9h).
        assert!((ft.interval_fraction_le(10.0 * HOUR as f64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reads_and_writes_dedup_independently() {
        let mut ft = FileTracker::new();
        ft.observe(&write("/a", 0, 10));
        ft.observe(&read("/a", 60, 10)); // a read within 8h of a write still counts
        assert_eq!(ft.file_count(), 1);
        assert_eq!(ft.fraction_where(|r, w| (r, w) == (1, 1)), 1.0);
    }

    #[test]
    fn path_front_and_id_core_agree_record_for_record() {
        // Revisits, a re-write at a new size, an errored request, and
        // slots handed out in an order first appearance would not give.
        let mut gone = read("/never-there", 70, 0);
        gone.error = Some(fmig_trace::ErrorKind::FileNotFound);
        let trace = [
            (7, write("/a", 0, 10)),
            (2, read("/b", 50, 5)),
            (7, read("/a", 60, 10)),
            (u32::MAX, gone),
            (7, write("/a", 9 * HOUR, 30)),
            (2, read("/b", 10 * HOUR, 5)),
            (4, read("/c", 10 * HOUR + 5, 8)),
            (2, read("/b", 10 * HOUR + 9, 5)),
        ];
        let mut by_path = FileTracker::new();
        let mut by_id = IdFileTracker::new();
        for (slot, rec) in &trace {
            // The analyzer keeps errored records from the path front;
            // the core drops them itself.
            if rec.is_ok() {
                by_path.observe(rec);
            }
            by_id.observe(*slot, rec);
            assert_eq!(by_path.file_count(), by_id.file_count());
            assert_eq!(by_path.total_bytes(), by_id.total_bytes());
            assert_eq!(by_path.never_read(), by_id.never_read());
            assert_eq!(by_path.accessed_once(), by_id.accessed_once());
            assert_eq!(by_path.repeats_within(), by_id.repeats_within());
            assert_eq!(
                by_path.repeat_within_8h_fraction(),
                by_id.repeat_within_8h_fraction()
            );
            assert_eq!(by_path.intervals(), by_id.intervals());
            assert_eq!(by_path.reference_count_cdf(), by_id.reference_count_cdf());
        }
        assert_eq!(by_id.file_count(), 3);
        assert_eq!(by_id.total_bytes(), 30 + 5 + 8);
        assert_eq!(by_id.median_references(), 2);
        // Gaps 60 s, 9 h − 60 s, 10 h − 50 s and 9 s.
        assert_eq!(by_id.repeats_within(), [2, 2, 2, 2, 4]);
        // Slots 0, 1, 3, 5, 6 were never named and count toward nothing.
        assert_eq!(by_id.size_histogram().count(), 3);
    }

    #[test]
    fn headline_fractions() {
        let mut ft = FileTracker::new();
        ft.observe(&write("/w-only", 0, 10));
        ft.observe(&read("/r-only", 0, 10));
        ft.observe(&write("/both", 0, 10));
        ft.observe(&read("/both", 10 * HOUR, 10));
        assert_eq!(ft.file_count(), 3);
        assert!((ft.never_read() - 1.0 / 3.0).abs() < 1e-12);
        assert!((ft.never_written() - 1.0 / 3.0).abs() < 1e-12);
        assert!((ft.accessed_once() - 2.0 / 3.0).abs() < 1e-12);
        assert!((ft.accessed_twice() - 1.0 / 3.0).abs() < 1e-12);
        assert!((ft.write_once_never_read() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ft.median_references(), 1);
        assert_eq!(ft.referenced_more_than(10), 0.0);
    }

    #[test]
    fn raw_repeats_counted_against_dedup() {
        let mut ft = FileTracker::new();
        ft.observe(&read("/a", 0, 10));
        ft.observe(&read("/a", 100, 10));
        ft.observe(&read("/a", 200, 10));
        ft.observe(&read("/b", 300, 10));
        // Two of four raw requests repeat /a within 8 hours.
        assert!((ft.repeat_within_8h_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn repeat_windows_nest_and_the_eight_hour_entry_is_the_headline() {
        let mut ft = FileTracker::new();
        // Gaps on /a: 100 s, 3 h, 7 h, 20 h, then 2 days.
        for t in [0, 100, 100 + 3 * HOUR, 100 + 10 * HOUR, 100 + 30 * HOUR] {
            ft.observe(&read("/a", t, 10));
        }
        ft.observe(&read("/a", 100 + 78 * HOUR, 10));
        let mut gone = read("/a", 100 + 78 * HOUR + 1, 10);
        gone.error = Some(fmig_trace::ErrorKind::FileNotFound);
        ft.observe(&gone); // errored: neither a request nor a repeat
        ft.observe(&read("/b", 5, 10));
        let within = ft.repeats_within();
        assert_eq!(within, [1, 1, 2, 3, 4]);
        for pair in within.windows(2) {
            assert!(pair[0] <= pair[1], "{within:?}");
        }
        let eight = REPEAT_WINDOWS_H.iter().position(|&h| h == 8).unwrap();
        assert_eq!(
            ft.repeat_within_8h_fraction(),
            ft.repeat_fraction(within[eight])
        );
        assert!((ft.repeat_within_8h_fraction() - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn sizes_take_latest_write() {
        let mut ft = FileTracker::new();
        ft.observe(&write("/a", 0, 1_000_000));
        ft.observe(&write("/a", 10 * HOUR, 2_000_000));
        ft.observe(&read("/b", 0, 5_000_000));
        assert_eq!(ft.total_bytes(), 7_000_000);
        assert!((ft.avg_file_mb() - 3.5).abs() < 1e-9);
        let h = ft.size_histogram();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn reference_count_cdf_is_monotone_and_ends_at_one() {
        let mut ft = FileTracker::new();
        for (i, n) in [1u32, 1, 2, 5, 40].iter().enumerate() {
            for k in 0..*n {
                ft.observe(&read(&format!("/f{i}"), (k as i64) * 9 * HOUR, 10));
            }
        }
        let cdf = ft.reference_count_cdf();
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        // Two of five files referenced exactly once.
        assert!((cdf[0].1 - 0.4).abs() < 1e-12);
        assert_eq!(cdf[0].0, 1);
        // One file referenced more than 10 (counted) times.
        assert!((ft.referenced_more_than(10) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn direction_cdfs_split_reads_and_writes() {
        let mut ft = FileTracker::new();
        ft.observe(&write("/a", 0, 1));
        ft.observe(&read("/b", 0, 1));
        let reads = ft.direction_count_cdf(Direction::Read);
        // Half the files have 0 reads.
        assert_eq!(reads[0], (0, 0.5));
        let writes = ft.direction_count_cdf(Direction::Write);
        assert_eq!(writes[0], (0, 0.5));
    }

    #[test]
    fn empty_tracker_is_zero() {
        let ft = FileTracker::new();
        assert_eq!(ft.file_count(), 0);
        assert_eq!(ft.avg_file_mb(), 0.0);
        assert_eq!(ft.never_read(), 0.0);
        assert_eq!(ft.median_references(), 0);
        assert_eq!(ft.repeat_within_8h_fraction(), 0.0);
        assert_eq!(ft.repeats_within(), [0; REPEAT_WINDOWS_H.len()]);
        assert!(ft.reference_count_cdf().is_empty());
    }
}
