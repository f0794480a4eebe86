//! Latency-to-first-byte distributions from annotated traces (Figure 3
//! and the Table 3 latency rows).
//!
//! Works on any trace whose `startup_latency_s` fields are populated —
//! either real measurements or the output of `fmig-sim`. Keeping this
//! analysis independent of the simulator lets it run on externally
//! collected traces too. Closed-loop policy runs feed measured waits in
//! directly through [`LatencyAnalysis::observe_wait`] and compare
//! policies side by side with [`PolicyLatencyReport`].

use fmig_trace::{DeviceClass, Direction, Request};
use serde::{Deserialize, Serialize};

use crate::hist::{LogHistogram, Welford};
use crate::report::TextTable;

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

    /// Approximate `p`-quantile of one direction's waits across all
    /// devices (e.g. the p99 first-byte read wait).
    pub fn direction_quantile(&self, dir: Direction, p: f64) -> f64 {
        let cells = &self.cells[dir_index(dir)];
        let mut h = cells[0].hist.clone();
        h.merge(&cells[1].hist);
        h.merge(&cells[2].hist);
        if h.count() == 0 {
            return 0.0;
        }
        h.quantile(p)
    }

    /// Observations in one direction across all devices.
    pub fn direction_count(&self, dir: Direction) -> u64 {
        self.cells[dir_index(dir)]
            .iter()
            .map(|c| c.moments.count())
            .sum()
    }
}

/// Per-policy latency cells: one [`LatencyAnalysis`] per migration
/// policy, fed by closed-loop runs, rendered as a comparison table of
/// simulated first-byte waits (the latency-true counterpart of the
/// miss-ratio winner tables).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyLatencyReport {
    cells: Vec<(String, LatencyAnalysis)>,
}

impl PolicyLatencyReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a policy's cell and returns its analysis for feeding.
    pub fn cell(&mut self, policy: impl Into<String>) -> &mut LatencyAnalysis {
        self.cells.push((policy.into(), LatencyAnalysis::new()));
        &mut self.cells.last_mut().expect("just pushed").1
    }

    /// The policies in insertion order with their analyses.
    pub fn cells(&self) -> impl Iterator<Item = (&str, &LatencyAnalysis)> {
        self.cells.iter().map(|(n, a)| (n.as_str(), a))
    }

    /// Number of policy cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no policy has been added.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The policy with the lowest p99 first-byte read wait, paired
    /// with that wait in seconds — the tail-latency winner column that
    /// sits next to the miss-ratio winner in the sweep report. Ties
    /// keep the earliest-inserted policy; `None` until some cell has
    /// read observations.
    pub fn best_by_p99(&self) -> Option<(&str, f64)> {
        self.cells
            .iter()
            .filter(|(_, a)| a.direction_count(Direction::Read) > 0)
            .map(|(n, a)| (n.as_str(), a.direction_quantile(Direction::Read, 0.99)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Renders mean / median / p99 read waits per policy.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "policy",
            "reads",
            "mean read wait (s)",
            "median (s)",
            "p99 (s)",
        ]);
        for (name, a) in &self.cells {
            t.row([
                name.clone(),
                a.direction_count(Direction::Read).to_string(),
                format!("{:.1}", a.direction_mean(Direction::Read)),
                format!("{:.1}", a.direction_quantile(Direction::Read, 0.5)),
                format!("{:.1}", a.direction_quantile(Direction::Read, 0.99)),
            ]);
        }
        t.render()
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
        assert_eq!(a.direction_quantile(Direction::Read, 0.99), 0.0);
        assert_eq!(a.direction_count(Direction::Write), 0);
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
        assert_eq!(by_wait.direction_count(Direction::Read), 3);
        assert!(by_wait.direction_quantile(Direction::Read, 0.99) >= 100.0);
    }

    #[test]
    fn policy_latency_report_renders_per_policy_rows() {
        let mut report = PolicyLatencyReport::new();
        assert!(report.is_empty());
        let stp = report.cell("STP(1.4)");
        for w in [2.0, 4.0, 90.0] {
            stp.observe_wait(Direction::Read, DeviceClass::TapeSilo, w);
        }
        let lru = report.cell("LRU");
        for w in [5.0, 8.0, 300.0] {
            lru.observe_wait(Direction::Read, DeviceClass::TapeSilo, w);
        }
        assert_eq!(report.len(), 2);
        let text = report.render();
        assert!(text.contains("STP(1.4)"));
        assert!(text.contains("LRU"));
        assert!(text.contains("p99"));
        // Cells are independent: STP's mean (32.0) vs LRU's (104.3).
        let names: Vec<&str> = report.cells().map(|(n, _)| n).collect();
        assert_eq!(names, ["STP(1.4)", "LRU"]);
        let means: Vec<f64> = report
            .cells()
            .map(|(_, a)| a.direction_mean(Direction::Read))
            .collect();
        assert!(means[0] < means[1]);
    }

    #[test]
    fn best_by_p99_picks_the_tail_winner() {
        let mut report = PolicyLatencyReport::new();
        assert_eq!(report.best_by_p99(), None);
        let a = report.cell("LRU");
        for w in [10.0, 20.0, 400.0] {
            a.observe_wait(Direction::Read, DeviceClass::TapeSilo, w);
        }
        // Worse mean but a far better tail: the p99 column must pick it.
        let b = report.cell("LRU-MAD");
        for w in [60.0, 70.0, 80.0] {
            b.observe_wait(Direction::Read, DeviceClass::TapeSilo, w);
        }
        let (name, p99) = report.best_by_p99().expect("two populated cells");
        assert_eq!(name, "LRU-MAD");
        assert!(p99 < 100.0);
    }
}
