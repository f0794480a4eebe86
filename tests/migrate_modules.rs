//! Integration coverage for §6's studies: request dedup (§6-b, read off
//! `fmig-analysis`'s file census), and the two `fmig-migrate` study
//! modules, the disk/tape dividing point (§6-c) and lazy write-behind
//! (§6-d). Each module gets targeted scenario tests plus at least one
//! property test over randomized traces.

use fmig_analysis::IdFileTracker;
use fmig_migrate::{dividing, writeback};
use fmig_trace::time::{HOUR, TRACE_EPOCH};
use fmig_trace::{DeviceClass, Direction, ErrorKind, IdRecord};
use proptest::prelude::*;

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

/// A randomized, time-sorted trace over a small file population, with a
/// sprinkling of writes and errored records (which name no file: slot
/// `u32::MAX`).
fn random_trace(steps: &[(u8, u8, bool)]) -> Vec<IdRecord> {
    let mut t = 0i64;
    steps
        .iter()
        .map(|&(gap, file, is_write)| {
            t += i64::from(gap) * 1200;
            let direction = if is_write {
                Direction::Write
            } else {
                Direction::Read
            };
            if file == 255 {
                IdRecord {
                    error: Some(ErrorKind::FileNotFound),
                    ..request(u32::MAX, t, direction)
                }
            } else {
                request(u32::from(file % 12), t, direction)
            }
        })
        .collect()
}

// ---------------------------------------------------------------- dedup

#[test]
fn dedup_savings_follow_the_batch_script_shape() {
    // A "batch script" pattern: every job re-requests the same input
    // three times within minutes — two thirds of those fit a one-hour
    // window, and the jobs' two-hour spacing puts every request but the
    // first inside the two-hour one.
    let mut files = IdFileTracker::new();
    for job in 0..20i64 {
        for burst in 0..3 {
            files.observe(0, &read(0, job * 2 * HOUR + burst * 300));
        }
    }
    assert_eq!(files.repeats_within(), [40, 59, 59, 59, 59]);
    assert_eq!(files.repeat_within_8h_fraction(), 59.0 / 60.0);
}

// ------------------------------------------------------------ writeback

#[test]
fn deferred_writes_respect_reads_even_through_midnight_chains() {
    // Write at 21:00, read back at 23:30 (inside the night window):
    // the flush must still land before the read.
    let records = vec![write(0, 21 * HOUR), read(0, 23 * HOUR + 1800)];
    let deferred = writeback::defer_writes(&records);
    let w = deferred
        .iter()
        .find(|r| r.direction == Direction::Write)
        .unwrap();
    let r = deferred
        .iter()
        .find(|r| r.direction == Direction::Read)
        .unwrap();
    assert!(w.start < r.start);
    let report = writeback::deferral_report(&records, &deferred);
    assert_eq!(report.writes, 1);
}

proptest! {
    /// Write-behind invariants on arbitrary traces: the deferred trace
    /// is a same-length, time-sorted permutation in which reads and
    /// errors are untouched, no write moved backwards (rank-wise), and
    /// every successful write still lands before the next read of its
    /// file.
    #[test]
    fn defer_writes_preserves_reads_and_read_back_ordering(
        steps in proptest::collection::vec((0u8..6, 0u8..10, any::<bool>()), 0..100),
    ) {
        let records = random_trace(&steps);
        let deferred = writeback::defer_writes(&records);
        prop_assert_eq!(deferred.len(), records.len());
        for pair in deferred.windows(2) {
            prop_assert!(pair[0].start <= pair[1].start);
        }
        let ok = |r: &IdRecord| r.error.is_none();
        // Reads and errors pass through as a multiset.
        let untouched = |rs: &[IdRecord]| {
            let mut v: Vec<(i64, u32, bool)> = rs
                .iter()
                .filter(|r| !ok(r) || r.direction == Direction::Read)
                .map(|r| (r.start.as_unix(), r.file, ok(r)))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(untouched(&records), untouched(&deferred));
        // Rank-wise, no write moves earlier.
        let write_times = |rs: &[IdRecord]| {
            let mut v: Vec<i64> = rs
                .iter()
                .filter(|r| ok(r) && r.direction == Direction::Write)
                .map(|r| r.start.as_unix())
                .collect();
            v.sort_unstable();
            v
        };
        for (before, after) in write_times(&records).iter().zip(write_times(&deferred)) {
            prop_assert!(after >= *before);
        }
        // Read-back safety: in the deferred trace, every successful
        // read of a file that was written earlier in the *original*
        // trace still sees the write flushed no later than the read
        // (equality only when write and read shared a timestamp to
        // begin with — the clamp is `next_read - 1`, floored at the
        // write's own start).
        for (i, rec) in records.iter().enumerate() {
            if !ok(rec) || rec.direction != Direction::Write {
                continue;
            }
            let next_read = records[i + 1..]
                .iter()
                .find(|r| ok(r) && r.direction == Direction::Read && r.file == rec.file);
            if let Some(read_rec) = next_read {
                let flushed = deferred
                    .iter()
                    .filter(|r| {
                        ok(r)
                            && r.direction == Direction::Write
                            && r.file == rec.file
                            && r.start <= read_rec.start
                    })
                    .count();
                prop_assert!(
                    flushed > 0,
                    "write of file {} lost before its read-back", rec.file
                );
            }
        }
    }
}

// ------------------------------------------------------------- dividing

#[test]
fn dividing_point_feasibility_is_monotone_in_the_threshold() {
    let study = dividing::DividingPointStudy {
        disk_budget: 50_000_000,
        ..dividing::DividingPointStudy::ncar()
    };
    let static_sizes: Vec<u64> = (1..=40).map(|i| i * 2_000_000).collect();
    let thresholds: Vec<u64> = (0..=10).map(|i| i * 10_000_000).collect();
    let rows = study.sweep(&static_sizes, &static_sizes, &thresholds);
    // Once infeasible, larger thresholds stay infeasible.
    let mut seen_infeasible = false;
    for row in &rows {
        if seen_infeasible {
            assert!(!row.feasible, "feasibility must be monotone");
        }
        seen_infeasible |= !row.feasible;
    }
    assert!(seen_infeasible, "the budget must bind somewhere");
    let best = dividing::DividingPointStudy::best_feasible(&rows).expect("a feasible row exists");
    assert!(best.feasible);
}

proptest! {
    /// Dividing-point invariants: resident bytes and disk share grow
    /// with the threshold, response time never worsens as more accesses
    /// move to the (strictly faster) disk tier, and `best_feasible`
    /// returns the minimum-response feasible row.
    #[test]
    fn dividing_sweep_is_monotone_and_best_feasible_is_minimal(
        sizes in proptest::collection::vec(1u64..50_000_000, 1..60),
        budget in 1_000_000u64..2_000_000_000,
    ) {
        let study = dividing::DividingPointStudy {
            disk_budget: budget,
            ..dividing::DividingPointStudy::ncar()
        };
        let mut thresholds: Vec<u64> = vec![0, 1_000, 1_000_000, 10_000_000, 100_000_000];
        thresholds.extend(sizes.iter().take(8).copied());
        thresholds.sort_unstable();
        let rows = study.sweep(&sizes, &sizes, &thresholds);
        for pair in rows.windows(2) {
            prop_assert!(pair[1].disk_resident_bytes >= pair[0].disk_resident_bytes);
            prop_assert!(pair[1].disk_access_share >= pair[0].disk_access_share);
            prop_assert!(pair[1].mean_response_s <= pair[0].mean_response_s + 1e-9);
            if !pair[0].feasible {
                prop_assert!(!pair[1].feasible);
            }
        }
        if let Some(best) = dividing::DividingPointStudy::best_feasible(&rows) {
            prop_assert!(best.feasible);
            for row in rows.iter().filter(|r| r.feasible) {
                prop_assert!(best.mean_response_s <= row.mean_response_s + 1e-9);
            }
        } else {
            // Only possible when even threshold 0 breaks the budget —
            // which it cannot, since nothing is resident below it.
            prop_assert!(rows.iter().all(|r| !r.feasible));
        }
    }
}
