//! Latency metrics collected by the simulator (Figure 3
//! and the Table 3 "secs to first byte" rows).

use fmig_trace::{DeviceClass, Direction};
use serde::{Deserialize, Serialize};

/// Upper edge (seconds) of the last regular histogram bucket; larger
/// latencies land in the overflow bucket. Figure 3's axis runs to 400 s,
/// so 1200 leaves plenty of tail resolution.
pub const MAX_BUCKET_S: usize = 1200;

/// A one-second-resolution latency histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum_s: f64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; MAX_BUCKET_S],
            overflow: 0,
            count: 0,
            sum_s: 0.0,
        }
    }

    /// Records one latency observation in seconds.
    pub fn record(&mut self, latency_s: f64) {
        let latency_s = latency_s.max(0.0);
        let idx = latency_s.floor() as usize;
        if idx < MAX_BUCKET_S {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum_s += latency_s;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in seconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }

    /// Fraction of observations at or below `s` seconds.
    pub fn fraction_le(&self, s: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let upto = (s.floor() as usize + 1).min(MAX_BUCKET_S);
        let hits: u64 = self.buckets[..upto].iter().sum();
        hits as f64 / self.count as f64
    }

    /// Approximate `p`-quantile (by bucket lower edge).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile {p} out of range");
        if self.count == 0 {
            return 0.0;
        }
        let target = (p * self.count as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= target {
                return i as f64;
            }
        }
        MAX_BUCKET_S as f64
    }

    /// CDF points `(upper_edge_s, cumulative_fraction)` for plotting
    /// Figure 3, thinned to buckets where the mass changes.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        if self.count == 0 {
            return out;
        }
        let mut acc = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b > 0 {
                acc += b;
                out.push(((i + 1) as f64, acc as f64 / self.count as f64));
            }
        }
        if self.overflow > 0 {
            out.push((f64::INFINITY, 1.0));
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum_s += other.sum_s;
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// All metrics produced by one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Latency to first byte, indexed `[direction][device]` in
    /// [`Direction::ALL`] × [`DeviceClass::ALL`] order.
    pub latency: Vec<Vec<LatencyHistogram>>,
    /// Requests simulated (including errors).
    pub requests: u64,
    /// Errored requests (answered at the MSCP, no device activity).
    pub errors: u64,
}

impl Metrics {
    /// Creates an empty metrics container.
    pub fn new() -> Self {
        Metrics {
            latency: vec![
                vec![LatencyHistogram::new(); 3],
                vec![LatencyHistogram::new(); 3],
            ],
            requests: 0,
            errors: 0,
        }
    }

    /// The latency histogram for one (direction, device) cell.
    pub fn latency_of(&self, dir: Direction, device: DeviceClass) -> &LatencyHistogram {
        &self.latency[dir_index(dir)][device_index(device)]
    }

    /// Records a first-byte latency observation.
    pub fn record_latency(&mut self, dir: Direction, device: DeviceClass, latency_s: f64) {
        self.latency[dir_index(dir)][device_index(device)].record(latency_s);
    }

    /// Combined (reads + writes) histogram for a device, for Figure 3.
    pub fn device_latency(&self, device: DeviceClass) -> LatencyHistogram {
        let mut h = self.latency[0][device_index(device)].clone();
        h.merge(&self.latency[1][device_index(device)]);
        h
    }
}

impl Default for Metrics {
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

fn device_index(device: DeviceClass) -> usize {
    match device {
        DeviceClass::Disk => 0,
        DeviceClass::TapeSilo => 1,
        DeviceClass::TapeManual => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_quantile() {
        let mut h = LatencyHistogram::new();
        for s in [1.0, 2.0, 3.0, 4.0, 100.0] {
            h.record(s);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 22.0).abs() < 1e-9);
        assert_eq!(h.quantile(0.5), 3.0);
        assert!((h.fraction_le(4.0) - 0.8).abs() < 1e-9);
        assert!((h.fraction_le(1.0) - 0.2).abs() < 1e-9);
        assert_eq!(h.fraction_le(0.5), 0.0);
    }

    #[test]
    fn overflow_lands_in_tail() {
        let mut h = LatencyHistogram::new();
        h.record(5000.0);
        h.record(1.0);
        assert_eq!(h.count(), 2);
        assert!((h.fraction_le(10.0) - 0.5).abs() < 1e-9);
        let pts = h.cdf_points();
        assert_eq!(pts.last().unwrap().1, 1.0);
        assert!(pts.last().unwrap().0.is_infinite());
    }

    #[test]
    fn negative_latencies_clamp_to_zero() {
        let mut h = LatencyHistogram::new();
        h.record(-3.0);
        assert_eq!(h.quantile(1.0), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        a.record(1.0);
        let mut b = LatencyHistogram::new();
        b.record(3.0);
        b.record(2000.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.fraction_le(5.0) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_cells_are_independent() {
        let mut m = Metrics::new();
        m.record_latency(Direction::Read, DeviceClass::TapeSilo, 85.0);
        m.record_latency(Direction::Write, DeviceClass::TapeSilo, 40.0);
        assert_eq!(
            m.latency_of(Direction::Read, DeviceClass::TapeSilo).count(),
            1
        );
        assert_eq!(
            m.latency_of(Direction::Write, DeviceClass::TapeSilo)
                .count(),
            1
        );
        assert_eq!(m.latency_of(Direction::Read, DeviceClass::Disk).count(), 0);
        let combined = m.device_latency(DeviceClass::TapeSilo);
        assert_eq!(combined.count(), 2);
        assert!((combined.mean() - 62.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.fraction_le(100.0), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert!(h.cdf_points().is_empty());
    }
}
