//! End-to-end integration: the full study pipeline reproduces the
//! paper's qualitative shape at small scale.
//!
//! These are the repository's acceptance tests: every headline claim of
//! Miller & Katz (1993) is asserted with a tolerance wide enough for a
//! small-scale synthetic run but tight enough to catch a broken model.

use fmig_core::{Study, StudyConfig};
use fmig_trace::time::{CivilDate, Timestamp};
use fmig_trace::{DeviceClass, Direction};

fn study() -> fmig_core::StudyOutput {
    let mut config = StudyConfig::at_scale(0.02);
    config.workload.seed = 0x1993;
    Study::new(config).run()
}

#[test]
fn read_write_mix_matches_table3() {
    let out = study();
    let s = &out.analysis.stats;
    // 2:1 reads by references (paper: 66.5%).
    let share = s.read_reference_share();
    assert!((0.58..0.72).contains(&share), "read share {share}");
    // Reads carry more of the bytes (paper: 73%).
    let bytes = s.read_byte_share();
    assert!(bytes > 0.58, "read byte share {bytes}");
    // Errors ~4.76%.
    assert!((s.error_fraction() - 0.0476).abs() < 0.01);
    // Device mix: disk majority, silo next, manual smallest (Table 3).
    let shares = s.device_reference_shares();
    assert!(shares[0].fraction > 0.55, "disk {}", shares[0].fraction);
    assert!(shares[1].fraction > shares[2].fraction, "silo < manual");
    assert!(
        (0.05..0.20).contains(&shares[2].fraction),
        "manual share {}",
        shares[2].fraction
    );
}

#[test]
fn average_transfer_sizes_match_table3() {
    let out = study();
    let s = &out.analysis.stats;
    let read_mb = s.reads.total.avg_file_size_mb();
    let write_mb = s.writes.total.avg_file_size_mb();
    assert!((20.0..36.0).contains(&read_mb), "avg read {read_mb} MB");
    assert!((15.0..30.0).contains(&write_mb), "avg write {write_mb} MB");
    // Per-device size ordering: disk small, silo large (Table 3).
    let disk = s.reads.device(DeviceClass::Disk).avg_file_size_mb();
    let silo = s.reads.device(DeviceClass::TapeSilo).avg_file_size_mb();
    assert!(disk < 10.0, "disk avg {disk}");
    assert!(silo > 50.0, "silo avg {silo}");
}

#[test]
fn periodicity_matches_figures_4_and_5() {
    let out = study();
    let hourly = &out.analysis.hourly;
    // Reads strongly diurnal; writes nearly flat (Figure 4).
    let read_pt = hourly.peak_to_trough(Direction::Read);
    let write_pt = hourly.peak_to_trough(Direction::Write);
    assert!(read_pt > 2.5, "read peak/trough {read_pt}");
    assert!(write_pt < read_pt, "writes should be flatter than reads");
    assert!(write_pt < 3.0, "write peak/trough {write_pt}");
    // Weekend dip for reads, not writes (Figure 5).
    let weekly = &out.analysis.weekly;
    let read_weekend = weekly.weekend_to_weekday(Direction::Read);
    let write_weekend = weekly.weekend_to_weekday(Direction::Write);
    assert!(read_weekend < 0.75, "read weekend ratio {read_weekend}");
    assert!(write_weekend > 0.7, "write weekend ratio {write_weekend}");
}

#[test]
fn growth_and_holidays_match_figure_6() {
    let out = study();
    let weeks = &out.analysis.weeks;
    assert!(weeks.weeks() >= 100, "weeks observed {}", weeks.weeks());
    // Reads grow across the trace; writes do not (Figure 6).
    let read_growth = weeks.growth_ratio(Direction::Read);
    let write_growth = weeks.growth_ratio(Direction::Write);
    assert!(read_growth > 1.25, "read growth {read_growth}");
    assert!(write_growth < read_growth, "writes grew faster than reads");
    // Christmas 1991 dents reads.
    let xmas = Timestamp::from_civil(CivilDate::new(1991, 12, 25), 12, 0, 0);
    let dip = weeks.dip_ratio(Direction::Read, xmas);
    assert!(dip < 0.9, "christmas read dip ratio {dip}");
}

#[test]
fn request_clustering_matches_figure_7() {
    let out = study();
    let gaps = &out.analysis.gaps;
    // Strong clustering: far more short gaps than a Poisson process of
    // the same mean rate would give.
    let under10 = gaps.fraction_le(10.0);
    let poisson_baseline = 1.0 - (-10.0 / gaps.mean_gap_s()).exp();
    assert!(
        under10 > 5.0 * poisson_baseline,
        "clustering {under10} vs poisson {poisson_baseline}"
    );
    assert!(under10 > 0.22, "short-gap fraction {under10}");
}

#[test]
fn file_reference_counts_match_figure_8() {
    let out = study();
    let f = &out.analysis.files;
    assert!(
        (0.40..0.60).contains(&f.never_read()),
        "never read {}",
        f.never_read()
    );
    assert!(
        (0.13..0.30).contains(&f.never_written()),
        "never written {}",
        f.never_written()
    );
    assert!(
        (0.47..0.67).contains(&f.accessed_once()),
        "accessed once {}",
        f.accessed_once()
    );
    assert!(
        (0.34..0.54).contains(&f.write_once_never_read()),
        "write-once-never-read {}",
        f.write_once_never_read()
    );
    assert_eq!(f.median_references(), 1, "median references");
    let over10 = f.referenced_more_than(10);
    assert!((0.005..0.10).contains(&over10), ">10 refs {over10}");
}

#[test]
fn interreference_intervals_match_figure_9() {
    let out = study();
    let f = &out.analysis.files;
    let under_1d = f.intervals_under_1d();
    assert!((0.50..0.88).contains(&under_1d), "intervals <1d {under_1d}");
    // The year-long tail exists.
    let over_100d = 1.0 - f.interval_fraction_le(100.0 * 86_400.0);
    assert!(over_100d > 0.002, "long tail {over_100d}");
}

#[test]
fn size_distributions_match_figures_10_and_11() {
    let out = study();
    let d = &out.analysis.dynamic_sizes;
    // Figure 10: a large share of requests are small, carrying little data.
    let small_requests = d.fraction_le(1e6);
    assert!(
        (0.25..0.55).contains(&small_requests),
        "<=1MB requests {small_requests}"
    );
    assert!(d.data_fraction_le(1e6) < 0.05);
    // Figure 11: half-ish of files are small and hold a sliver of data.
    let h = out.analysis.files.size_histogram();
    let files_3mb = h.fraction_le(3e6);
    let data_3mb = h.weight_fraction_le(3e6);
    assert!((0.30..0.60).contains(&files_3mb), "files <3MB {files_3mb}");
    assert!(data_3mb < 0.06, "data <3MB {data_3mb}");
    // Mean stored file ~25 MB (Table 4).
    let mean_mb = out.analysis.files.avg_file_mb();
    assert!((17.0..33.0).contains(&mean_mb), "avg file {mean_mb} MB");
}

#[test]
fn directory_shape_matches_figure_12() {
    let out = study();
    let dirs = &out.analysis.dirs;
    assert!(dirs.dir_count() > 500, "dirs {}", dirs.dir_count());
    let le10 = dirs.fraction_with_at_most(10);
    assert!(le10 > 0.75, "dirs <=10 files {le10}");
    let top5 = dirs.files_in_top_dirs(0.05);
    assert!((0.35..0.90).contains(&top5), "top-5% share {top5}");
    assert!(dirs.max_depth() <= 12, "depth {}", dirs.max_depth());
    // A large share of files live in big directories (the full-scale
    // figure is >50%; the largest-directory cap shrinks with scale).
    assert!(dirs.files_in_dirs_larger_than(100) > 0.2);
}

#[test]
fn simulated_latencies_match_figure_3_shape() {
    let out = study();
    let lat = &out.analysis.latency;
    let disk = lat.device_mean(DeviceClass::Disk);
    let silo = lat.device_mean(DeviceClass::TapeSilo);
    let manual = lat.device_mean(DeviceClass::TapeManual);
    assert!(
        disk < silo && silo < manual,
        "ordering {disk} {silo} {manual}"
    );
    // The silo reaches the first byte well before the operator does.
    assert!(manual / silo > 1.5, "manual/silo {}", manual / silo);
    // Disk median in single-digit seconds (paper: 4 s).
    let disk_median = lat.device_median(DeviceClass::Disk);
    assert!(disk_median <= 10.0, "disk median {disk_median}");
    // Writes reach the first byte faster than reads (paper's §6 pivot).
    assert!(
        lat.direction_mean(Direction::Write) < lat.direction_mean(Direction::Read),
        "write latency should undercut reads"
    );
    // ~10% of manual requests exceed 400 s (Figure 3).
    let slow = 1.0 - lat.device_fraction_le(DeviceClass::TapeManual, 400.0);
    assert!((0.01..0.35).contains(&slow), "manual >400s fraction {slow}");
}

#[test]
fn eight_hour_repeats_match_section_6() {
    let out = study();
    let frac = out.analysis.files.repeat_within_8h_fraction();
    assert!((0.20..0.47).contains(&frac), "8h repeat fraction {frac}");
}
