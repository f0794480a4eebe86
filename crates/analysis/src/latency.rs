//! Latency-to-first-byte distributions from annotated traces (Figure 3
//! and the Table 3 latency rows).
//!
//! Works on any trace whose `startup_latency_s` fields are populated —
//! either real measurements or the output of `fmig-sim`. Keeping this
//! analysis independent of the simulator lets it run on externally
//! collected traces too. Closed-loop policy runs feed measured waits in
//! directly through [`LatencyAnalysis::observe_wait`].

use fmig_trace::{DeviceClass, Direction, Request};
use serde::{Deserialize, Serialize};

use crate::hist::{LogHistogram, Welford};

/// Per (direction × device) latency distributions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyAnalysis {
    cells: Vec<Vec<Cell>>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Cell {
    hist: LogHistogram,
    moments: Welford,
}

impl Cell {
    fn new() -> Self {
        Cell {
            // 1 second to ~half a day.
            hist: LogHistogram::new(1.0, 40_000.0, 6),
            moments: Welford::new(),
        }
    }
}

impl LatencyAnalysis {
    /// Creates an empty analysis.
    pub fn new() -> Self {
        LatencyAnalysis {
            cells: vec![vec![Cell::new(); 3], vec![Cell::new(); 3]],
        }
    }

    /// Feeds one successful record.
    pub fn observe(&mut self, rec: &impl Request) {
        let Some(device) = rec.mss_device() else {
            return;
        };
        if rec.error().is_some() {
            return;
        }
        self.observe_wait(rec.direction(), device, rec.startup_latency_s() as f64);
    }

    /// Feeds one first-byte wait directly — the closed-loop hierarchy
    /// engine's per-reference outcomes carry waits without a
    /// [`fmig_trace::TraceRecord`] to wrap them in.
    pub fn observe_wait(&mut self, dir: Direction, device: DeviceClass, wait_s: f64) {
        let cell = &mut self.cells[dir_index(dir)][dev_index(device)];
        cell.hist.record_count(wait_s.max(0.5));
        cell.moments.push(wait_s);
    }

    /// Mean seconds to first byte for a cell (a Table 3 row).
    pub fn mean(&self, dir: Direction, device: DeviceClass) -> f64 {
        self.cells[dir_index(dir)][dev_index(device)].moments.mean()
    }

    /// Mean over both directions for one device.
    pub fn device_mean(&self, device: DeviceClass) -> f64 {
        let r = &self.cells[0][dev_index(device)].moments;
        let w = &self.cells[1][dev_index(device)].moments;
        let n = r.count() + w.count();
        if n == 0 {
            0.0
        } else {
            (r.mean() * r.count() as f64 + w.mean() * w.count() as f64) / n as f64
        }
    }

    /// Mean over all devices for one direction (Table 3's top latency row).
    pub fn direction_mean(&self, dir: Direction) -> f64 {
        let cells = &self.cells[dir_index(dir)];
        let n: u64 = cells.iter().map(|c| c.moments.count()).sum();
        if n == 0 {
            return 0.0;
        }
        cells
            .iter()
            .map(|c| c.moments.mean() * c.moments.count() as f64)
            .sum::<f64>()
            / n as f64
    }

    /// Fraction of requests to `device` (both directions) that reached
    /// the first byte within `s` seconds — Figure 3's CDF.
    pub fn device_fraction_le(&self, device: DeviceClass, s: f64) -> f64 {
        let r = &self.cells[0][dev_index(device)].hist;
        let w = &self.cells[1][dev_index(device)].hist;
        let n = r.count() + w.count();
        if n == 0 {
            return 0.0;
        }
        (r.fraction_le(s) * r.count() as f64 + w.fraction_le(s) * w.count() as f64) / n as f64
    }

    /// Approximate median latency for a device.
    pub fn device_median(&self, device: DeviceClass) -> f64 {
        let mut h = self.cells[0][dev_index(device)].hist.clone();
        h.merge(&self.cells[1][dev_index(device)].hist);
        h.quantile(0.5)
    }

    /// Observations in a cell.
    pub fn count(&self, dir: Direction, device: DeviceClass) -> u64 {
        self.cells[dir_index(dir)][dev_index(device)]
            .moments
            .count()
    }

    /// Figure 3 CDF points for one device `(latency_s, fraction)`.
    pub fn device_cdf(&self, device: DeviceClass) -> Vec<(f64, f64)> {
        let mut h = self.cells[0][dev_index(device)].hist.clone();
        h.merge(&self.cells[1][dev_index(device)].hist);
        h.cdf_points().into_iter().map(|(e, f, _)| (e, f)).collect()
    }
}

impl Default for LatencyAnalysis {
    fn default() -> Self {
        Self::new()
    }
}

fn dir_index(dir: Direction) -> usize {
    match dir {
        Direction::Read => 0,
        Direction::Write => 1,
    }
}

fn dev_index(device: DeviceClass) -> usize {
    match device {
        DeviceClass::Disk => 0,
        DeviceClass::TapeSilo => 1,
        DeviceClass::TapeManual => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_trace::time::TRACE_EPOCH;
    use fmig_trace::{Endpoint, TraceRecord};

    fn rec(ep: Endpoint, read: bool, latency: u32) -> TraceRecord {
        let mut r = if read {
            TraceRecord::read(ep, TRACE_EPOCH, 1, "/f", 1)
        } else {
            TraceRecord::write(ep, TRACE_EPOCH, 1, "/f", 1)
        };
        r.startup_latency_s = latency;
        r
    }

    #[test]
    fn means_by_cell() {
        let mut a = LatencyAnalysis::new();
        a.observe(&rec(Endpoint::MssTapeSilo, true, 100));
        a.observe(&rec(Endpoint::MssTapeSilo, true, 140));
        a.observe(&rec(Endpoint::MssTapeSilo, false, 80));
        assert!((a.mean(Direction::Read, DeviceClass::TapeSilo) - 120.0).abs() < 1e-9);
        assert!((a.mean(Direction::Write, DeviceClass::TapeSilo) - 80.0).abs() < 1e-9);
        assert!((a.device_mean(DeviceClass::TapeSilo) - 320.0 / 3.0).abs() < 1e-9);
        assert_eq!(a.count(Direction::Read, DeviceClass::TapeSilo), 2);
    }

    #[test]
    fn direction_mean_weights_by_count() {
        let mut a = LatencyAnalysis::new();
        a.observe(&rec(Endpoint::MssDisk, true, 10));
        a.observe(&rec(Endpoint::MssDisk, true, 10));
        a.observe(&rec(Endpoint::MssTapeManual, true, 250));
        assert!((a.direction_mean(Direction::Read) - 90.0).abs() < 1e-9);
        assert_eq!(a.direction_mean(Direction::Write), 0.0);
    }

    #[test]
    fn errors_are_excluded() {
        let mut a = LatencyAnalysis::new();
        let mut bad = rec(Endpoint::MssDisk, true, 5);
        bad.error = Some(fmig_trace::ErrorKind::FileNotFound);
        a.observe(&bad);
        assert_eq!(a.count(Direction::Read, DeviceClass::Disk), 0);
    }

    #[test]
    fn figure3_shape_manual_slower_than_silo_slower_than_disk() {
        let mut a = LatencyAnalysis::new();
        for i in 0..100 {
            a.observe(&rec(Endpoint::MssDisk, true, 2 + i % 10));
            a.observe(&rec(Endpoint::MssTapeSilo, true, 60 + i % 60));
            a.observe(&rec(Endpoint::MssTapeManual, true, 150 + (i % 40) * 10));
        }
        let at60 = |d| a.device_fraction_le(d, 60.0);
        assert!(at60(DeviceClass::Disk) > at60(DeviceClass::TapeSilo));
        assert!(at60(DeviceClass::TapeSilo) > at60(DeviceClass::TapeManual));
        assert!(a.device_median(DeviceClass::Disk) < a.device_median(DeviceClass::TapeSilo));
        let cdf = a.device_cdf(DeviceClass::TapeManual);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_analysis_is_zero() {
        let a = LatencyAnalysis::new();
        assert_eq!(a.mean(Direction::Read, DeviceClass::Disk), 0.0);
        assert_eq!(a.device_mean(DeviceClass::Disk), 0.0);
        assert_eq!(a.device_fraction_le(DeviceClass::Disk, 100.0), 0.0);
        assert_eq!(a.count(Direction::Write, DeviceClass::Disk), 0);
    }

    #[test]
    fn observe_wait_matches_record_observation() {
        let mut by_record = LatencyAnalysis::new();
        let mut by_wait = LatencyAnalysis::new();
        for lat in [3, 40, 120] {
            by_record.observe(&rec(Endpoint::MssTapeSilo, true, lat));
            by_wait.observe_wait(Direction::Read, DeviceClass::TapeSilo, lat as f64);
        }
        assert_eq!(by_record, by_wait);
        assert_eq!(by_wait.count(Direction::Read, DeviceClass::TapeSilo), 3);
    }
}
