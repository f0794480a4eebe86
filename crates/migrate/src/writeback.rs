//! Lazy write-behind planning (§6-d).
//!
//! "An algorithm should not wait until it is absolutely necessary to free
//! up space; instead, it should write data to tape relatively quickly,
//! and then mark the file as 'deleteable'. ... A mass storage system
//! should be optimized to make read access to files faster at the cost of
//! requiring more work for writes."
//!
//! [`defer_writes`] rewrites a trace as if the MSS acknowledged writes
//! immediately and flushed them to tape during quiet night hours — each
//! write moves to the next 22:00–06:00 window (bounded by the file's next
//! read, which must still find the data on tape). Running the simulator
//! on the original and deferred traces quantifies how much read latency
//! the daytime tape-drive contention was costing.

use fmig_trace::time::{Timestamp, DAY, HOUR};
use fmig_trace::{Direction, IdRecord};

/// Start hour of the quiet window (inclusive).
const NIGHT_START_H: i64 = 22;
/// End hour of the quiet window (exclusive, next day).
const NIGHT_END_H: i64 = 6;

/// True if the instant falls in the 22:00–06:00 flush window.
pub fn in_night_window(t: Timestamp) -> bool {
    let h = t.hour_of_day() as i64;
    !(NIGHT_END_H..NIGHT_START_H).contains(&h)
}

/// The next instant at or after `t` inside the flush window.
pub fn next_night(t: Timestamp) -> Timestamp {
    if in_night_window(t) {
        return t;
    }
    let day_start = t.as_unix().div_euclid(DAY) * DAY;
    Timestamp::from_unix(day_start + NIGHT_START_H * HOUR)
}

/// Rewrites a sorted trace so every write is flushed lazily.
///
/// Each write keeps its identity but its start time moves to the next
/// night window (plus a spreading offset), clamped so it still lands
/// before any later read of the same file. Files are named by
/// `IdRecord::file`; reads and errored records are untouched, and an
/// errored record's slot is never looked up. The result is re-sorted by
/// start time.
pub fn defer_writes(records: &[IdRecord]) -> Vec<IdRecord> {
    let ok = || records.iter().filter(|r| r.error.is_none());
    let slots = ok().map(|r| r.file as usize + 1).max().unwrap_or(0);
    let mut writes = ok().filter(|r| r.direction == Direction::Write).count() as i64;
    // One reverse pass: each file's next read is known at each write.
    let mut next_read: Vec<Option<i64>> = vec![None; slots];
    let mut out = records.to_vec();
    for rec in out.iter_mut().rev().filter(|r| r.error.is_none()) {
        let start = rec.start.as_unix();
        let next = &mut next_read[rec.file as usize];
        if rec.direction == Direction::Read {
            *next = Some(start);
            continue;
        }
        // Writes are spread out within the window so the flush itself
        // does not become a convoy: the k-th write of the trace is
        // offset by 97·k seconds, modulo six hours.
        let spread = 97 * writes % (6 * HOUR);
        writes -= 1;
        let mut flush = next_night(rec.start).as_unix().max(start) + spread % (4 * HOUR);
        if let Some(read_t) = *next {
            flush = flush.min(read_t - 1);
        }
        rec.start = Timestamp::from_unix(flush.max(start));
    }
    out.sort_by_key(|r| r.start);
    out
}

/// Summary of how far writes moved.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeferralReport {
    /// Writes examined.
    pub writes: u64,
    /// Writes that moved at all.
    pub moved: u64,
    /// Mean deferral in seconds over all writes.
    pub mean_deferral_s: f64,
    /// Fraction of (deferred) writes that now start in the night window.
    pub night_fraction: f64,
}

/// Compares a trace with its deferred version.
///
/// The mean deferral is computed from aggregate start-time sums, which is
/// pairing-independent (repeat writes of one file would otherwise make
/// one-to-one matching ambiguous).
pub fn deferral_report(before: &[IdRecord], after: &[IdRecord]) -> DeferralReport {
    let is_write = |r: &&IdRecord| r.error.is_none() && r.direction == Direction::Write;
    let mut before_sorted: Vec<i64> = before
        .iter()
        .filter(is_write)
        .map(|r| r.start.as_unix())
        .collect();
    before_sorted.sort_unstable();
    let mut after_sorted: Vec<i64> = Vec::with_capacity(before_sorted.len());
    let mut writes = 0u64;
    let mut night = 0u64;
    for rec in after.iter().filter(is_write) {
        writes += 1;
        if in_night_window(rec.start) {
            night += 1;
        }
        after_sorted.push(rec.start.as_unix());
    }
    after_sorted.sort_unstable();
    // Rank-wise pairing: the i-th earliest write moved to the i-th
    // earliest flush (deferral preserves relative order up to spreading).
    let mut moved = 0u64;
    let mut total_defer = 0f64;
    for (orig, new) in before_sorted.iter().zip(after_sorted.iter()) {
        let d = (new - orig).max(0);
        if d > 0 {
            moved += 1;
        }
        total_defer += d as f64;
    }
    DeferralReport {
        writes,
        moved,
        mean_deferral_s: if writes == 0 {
            0.0
        } else {
            total_defer / writes as f64
        },
        night_fraction: if writes == 0 {
            0.0
        } else {
            night as f64 / writes as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_trace::time::TRACE_EPOCH;
    use fmig_trace::{DeviceClass, ErrorKind};

    fn request(file: u32, t: i64, direction: Direction) -> IdRecord {
        IdRecord {
            start: TRACE_EPOCH.add_secs(t),
            volume: 0,
            file_size: 10,
            file,
            startup_latency_s: 0,
            direction,
            device: DeviceClass::TapeSilo,
            error: None,
        }
    }

    fn read(file: u32, t: i64) -> IdRecord {
        request(file, t, Direction::Read)
    }

    fn write(file: u32, t: i64) -> IdRecord {
        request(file, t, Direction::Write)
    }

    /// An errored request: it names no file, so its slot is `u32::MAX`.
    fn lost(t: i64) -> IdRecord {
        IdRecord {
            error: Some(ErrorKind::FileNotFound),
            ..read(u32::MAX, t)
        }
    }

    #[test]
    fn night_window_detection() {
        assert!(in_night_window(TRACE_EPOCH)); // midnight
        assert!(in_night_window(TRACE_EPOCH.add_secs(5 * HOUR)));
        assert!(!in_night_window(TRACE_EPOCH.add_secs(12 * HOUR)));
        assert!(in_night_window(TRACE_EPOCH.add_secs(23 * HOUR)));
        // Next night from noon is 22:00 the same day.
        let noon = TRACE_EPOCH.add_secs(12 * HOUR);
        assert_eq!(next_night(noon).hour_of_day(), 22);
        assert_eq!(next_night(noon).trace_day(), 0);
    }

    #[test]
    fn daytime_writes_move_to_night() {
        let records = vec![write(0, 10 * HOUR), write(1, 11 * HOUR)];
        let deferred = defer_writes(&records);
        for rec in &deferred {
            assert!(in_night_window(rec.start), "write at {}", rec.start);
            assert!(rec.start.as_unix() >= 10 * HOUR + TRACE_EPOCH.as_unix());
        }
        let report = deferral_report(&records, &deferred);
        assert_eq!(report.writes, 2);
        assert_eq!(report.moved, 2);
        assert!(report.night_fraction > 0.99);
        assert!(report.mean_deferral_s > HOUR as f64);
    }

    #[test]
    fn writes_spread_by_97_seconds_each() {
        let records: Vec<_> = (0..3).map(|f| write(f, 10 * HOUR)).collect();
        let deferred = defer_writes(&records);
        let night = TRACE_EPOCH.add_secs(22 * HOUR).as_unix();
        let starts: Vec<i64> = deferred.iter().map(|r| r.start.as_unix() - night).collect();
        assert_eq!(starts, [97, 194, 291]);
        assert_eq!(
            deferred.iter().map(|r| r.file).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn flush_lands_before_the_next_read() {
        // Write at 10:00, read back at 14:00: the flush cannot wait for
        // night.
        let records = vec![write(0, 10 * HOUR), read(0, 14 * HOUR)];
        let deferred = defer_writes(&records);
        assert_eq!(deferred[0].direction, Direction::Write);
        assert_eq!(deferred[0].start, TRACE_EPOCH.add_secs(14 * HOUR - 1));
        assert_eq!(deferred[1], records[1]);
    }

    #[test]
    fn errored_records_between_a_write_and_its_read_back_change_nothing() {
        // Two errored requests (slot u32::MAX) sit between the write and
        // its read-back: they neither move nor stand in for the read.
        let clean = vec![write(0, 10 * HOUR), read(0, 14 * HOUR)];
        let noisy = vec![
            write(0, 10 * HOUR),
            lost(11 * HOUR),
            lost(13 * HOUR),
            read(0, 14 * HOUR),
        ];
        let deferred = defer_writes(&noisy);
        let flushed = IdRecord {
            start: TRACE_EPOCH.add_secs(14 * HOUR - 1),
            ..noisy[0]
        };
        assert_eq!(deferred, [noisy[1], noisy[2], flushed, noisy[3]]);
        assert_eq!(defer_writes(&clean), [flushed, clean[1]]);
        assert_eq!(
            deferral_report(&noisy, &deferred),
            deferral_report(&clean, &defer_writes(&clean))
        );
    }

    #[test]
    fn reads_and_errors_are_untouched() {
        let records = vec![read(0, 9 * HOUR), lost(9 * HOUR), write(1, 10 * HOUR)];
        let deferred = defer_writes(&records);
        assert!(deferred.contains(&records[0]));
        assert!(deferred.contains(&records[1]));
    }

    #[test]
    fn output_is_sorted() {
        let records = vec![
            write(0, 10 * HOUR),
            read(2, 11 * HOUR),
            write(1, 12 * HOUR),
            read(3, 23 * HOUR),
        ];
        let deferred = defer_writes(&records);
        for w in deferred.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        assert_eq!(deferred.len(), records.len());
    }

    #[test]
    fn night_writes_stay_near_their_slot() {
        let records = vec![write(0, 23 * HOUR)];
        let deferred = defer_writes(&records);
        // Already in the window: may spread forward but stays in-window
        // or close to it, and never moves backwards.
        assert!(deferred[0].start.as_unix() >= records[0].start.as_unix());
    }
}
