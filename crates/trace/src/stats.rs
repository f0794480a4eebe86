//! Single-pass accumulation of the Table 3 overall trace statistics.
//!
//! Table 3 reports, for reads, writes, and their total: reference counts,
//! gigabytes transferred, and average file size broken down by MSS device
//! (disk, silo tape, manual tape), plus average seconds to first byte.
//! Errored references (4.76% of the raw trace) are tallied separately and
//! excluded from the main cells, exactly as in §5.1.

use serde::{Deserialize, Serialize};

use crate::record::{DeviceClass, Direction, ErrorKind, Request};

/// Accumulator for one (direction × device) cell of Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Accum {
    /// Successful references in this cell.
    pub references: u64,
    /// Bytes transferred by those references.
    pub bytes: u64,
    /// Sum of startup latencies (seconds) for averaging.
    pub latency_sum_s: f64,
}

impl Accum {
    fn observe(&mut self, rec: &impl Request) {
        self.references += 1;
        self.bytes += rec.file_size();
        self.latency_sum_s += rec.startup_latency_s() as f64;
    }

    /// Adds another accumulator into this one.
    pub fn merge(&mut self, other: &Accum) {
        self.references += other.references;
        self.bytes += other.bytes;
        self.latency_sum_s += other.latency_sum_s;
    }

    /// Gigabytes transferred (10^9 bytes, as the paper reports).
    pub fn gigabytes(&self) -> f64 {
        self.bytes as f64 / 1.0e9
    }

    /// Average file size in megabytes, or 0 for an empty cell.
    pub fn avg_file_size_mb(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.bytes as f64 / 1.0e6 / self.references as f64
        }
    }

    /// Average seconds to first byte, or 0 for an empty cell.
    pub fn avg_latency_s(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.latency_sum_s / self.references as f64
        }
    }
}

/// Per-direction statistics: the total plus the three device rows.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DirectionStats {
    /// Direction total across devices.
    pub total: Accum,
    /// Breakdown by device class, indexed in [`DeviceClass::ALL`] order.
    pub by_device: [Accum; 3],
}

impl DirectionStats {
    /// The accumulator for one device class.
    pub fn device(&self, class: DeviceClass) -> &Accum {
        &self.by_device[device_index(class)]
    }

    /// Adds another direction's stats into this one.
    pub fn merge(&mut self, other: &DirectionStats) {
        self.total.merge(&other.total);
        for (a, b) in self.by_device.iter_mut().zip(other.by_device.iter()) {
            a.merge(b);
        }
    }
}

/// Per-device breakdown helper: share of a quantity relative to a total.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceBreakdown {
    /// Device this share describes.
    pub device: DeviceClass,
    /// Fraction of the direction total (0..=1).
    pub fraction: f64,
}

/// Full Table 3 accumulator plus the §5.1 error census.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Read-side statistics.
    pub reads: DirectionStats,
    /// Write-side statistics.
    pub writes: DirectionStats,
    /// Raw references seen, including errored ones.
    pub raw_references: u64,
    /// Errored references by kind `[not-found, media, premature]`.
    pub errors: [u64; 3],
}

impl TraceStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one record; errored records count only toward the error census.
    pub fn observe(&mut self, rec: &impl Request) {
        self.raw_references += 1;
        if let Some(kind) = rec.error() {
            self.errors[(kind.code() - 1) as usize] += 1;
            return;
        }
        let Some(device) = rec.mss_device() else {
            return;
        };
        let dir = match rec.direction() {
            Direction::Read => &mut self.reads,
            Direction::Write => &mut self.writes,
        };
        dir.total.observe(rec);
        dir.by_device[device_index(device)].observe(rec);
    }

    /// Statistics for one direction.
    pub fn direction(&self, dir: Direction) -> &DirectionStats {
        match dir {
            Direction::Read => &self.reads,
            Direction::Write => &self.writes,
        }
    }

    /// Combined reads + writes (the paper's "Total" column).
    pub fn combined(&self) -> DirectionStats {
        let mut c = self.reads.clone();
        c.merge(&self.writes);
        c
    }

    /// Successful references across both directions.
    pub fn total_references(&self) -> u64 {
        self.reads.total.references + self.writes.total.references
    }

    /// Total errored references.
    pub fn total_errors(&self) -> u64 {
        self.errors.iter().sum()
    }

    /// Errors for one kind.
    pub fn errors_of(&self, kind: ErrorKind) -> u64 {
        self.errors[(kind.code() - 1) as usize]
    }

    /// Fraction of raw references that errored (the paper's 4.76%).
    pub fn error_fraction(&self) -> f64 {
        if self.raw_references == 0 {
            0.0
        } else {
            self.total_errors() as f64 / self.raw_references as f64
        }
    }

    /// Read share of successful references (the paper's 2:1 ratio ⇒ ~0.66).
    pub fn read_reference_share(&self) -> f64 {
        let total = self.total_references();
        if total == 0 {
            0.0
        } else {
            self.reads.total.references as f64 / total as f64
        }
    }

    /// Read share of bytes transferred (paper: 73%).
    pub fn read_byte_share(&self) -> f64 {
        let total = self.reads.total.bytes + self.writes.total.bytes;
        if total == 0 {
            0.0
        } else {
            self.reads.total.bytes as f64 / total as f64
        }
    }

    /// Per-device share of successful references across both directions
    /// (paper totals: disk 66%, silo 20%, manual 12%).
    pub fn device_reference_shares(&self) -> [DeviceBreakdown; 3] {
        let combined = self.combined();
        let total = combined.total.references.max(1) as f64;
        DeviceClass::ALL.map(|device| DeviceBreakdown {
            device,
            fraction: combined.device(device).references as f64 / total,
        })
    }

    /// Merges another accumulator into this one (for parallel shards).
    pub fn merge(&mut self, other: &TraceStats) {
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
        self.raw_references += other.raw_references;
        for (a, b) in self.errors.iter_mut().zip(other.errors.iter()) {
            *a += b;
        }
    }
}

fn device_index(class: DeviceClass) -> usize {
    match class {
        DeviceClass::Disk => 0,
        DeviceClass::TapeSilo => 1,
        DeviceClass::TapeManual => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;
    use crate::time::TRACE_EPOCH;

    fn rec(dir: Direction, dev: DeviceClass, size: u64, lat: u32) -> TraceRecord {
        let ep = dev.endpoint();
        let mut r = match dir {
            Direction::Read => TraceRecord::read(ep, TRACE_EPOCH, size, "/f", 1),
            Direction::Write => TraceRecord::write(ep, TRACE_EPOCH, size, "/f", 1),
        };
        r.startup_latency_s = lat;
        r
    }

    #[test]
    fn cells_accumulate_by_direction_and_device() {
        let mut s = TraceStats::new();
        s.observe(&rec(Direction::Read, DeviceClass::Disk, 1_000_000, 10));
        s.observe(&rec(
            Direction::Read,
            DeviceClass::TapeSilo,
            80_000_000,
            100,
        ));
        s.observe(&rec(Direction::Write, DeviceClass::Disk, 4_000_000, 20));
        assert_eq!(s.reads.total.references, 2);
        assert_eq!(s.writes.total.references, 1);
        assert_eq!(s.reads.device(DeviceClass::Disk).references, 1);
        assert_eq!(s.reads.device(DeviceClass::TapeSilo).bytes, 80_000_000);
        assert_eq!(s.writes.device(DeviceClass::Disk).avg_file_size_mb(), 4.0);
        assert_eq!(s.combined().total.references, 3);
    }

    #[test]
    fn errors_counted_separately() {
        let mut s = TraceStats::new();
        let mut bad = rec(Direction::Read, DeviceClass::Disk, 5, 0);
        bad.error = Some(ErrorKind::FileNotFound);
        s.observe(&bad);
        s.observe(&rec(Direction::Read, DeviceClass::Disk, 5, 0));
        assert_eq!(s.raw_references, 2);
        assert_eq!(s.total_references(), 1);
        assert_eq!(s.total_errors(), 1);
        assert_eq!(s.errors_of(ErrorKind::FileNotFound), 1);
        assert!((s.error_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shares_match_hand_computation() {
        let mut s = TraceStats::new();
        for _ in 0..2 {
            s.observe(&rec(Direction::Read, DeviceClass::Disk, 10, 0));
        }
        s.observe(&rec(Direction::Write, DeviceClass::TapeSilo, 30, 0));
        assert!((s.read_reference_share() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.read_byte_share() - 0.4).abs() < 1e-12);
        let shares = s.device_reference_shares();
        assert!((shares[0].fraction - 2.0 / 3.0).abs() < 1e-12);
        assert!((shares[1].fraction - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(shares[2].fraction, 0.0);
    }

    #[test]
    fn avg_latency_averages_over_cell() {
        let mut s = TraceStats::new();
        s.observe(&rec(Direction::Read, DeviceClass::TapeManual, 1, 100));
        s.observe(&rec(Direction::Read, DeviceClass::TapeManual, 1, 300));
        assert_eq!(
            s.reads.device(DeviceClass::TapeManual).avg_latency_s(),
            200.0
        );
        assert_eq!(s.reads.device(DeviceClass::Disk).avg_latency_s(), 0.0);
    }

    #[test]
    fn merge_equals_sequential_observation() {
        let recs: Vec<_> = (0..10)
            .map(|i| {
                rec(
                    if i % 3 == 0 {
                        Direction::Write
                    } else {
                        Direction::Read
                    },
                    DeviceClass::ALL[i % 3],
                    (i as u64 + 1) * 1000,
                    i as u32,
                )
            })
            .collect();
        let mut all = TraceStats::new();
        recs.iter().for_each(|r| all.observe(r));
        let mut a = TraceStats::new();
        let mut b = TraceStats::new();
        recs[..5].iter().for_each(|r| a.observe(r));
        recs[5..].iter().for_each(|r| b.observe(r));
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let s = TraceStats::new();
        assert_eq!(s.error_fraction(), 0.0);
        assert_eq!(s.read_reference_share(), 0.0);
        assert_eq!(s.read_byte_share(), 0.0);
        assert_eq!(s.reads.total.avg_file_size_mb(), 0.0);
    }
}
