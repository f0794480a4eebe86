//! The disk/tape dividing point (§6-c).
//!
//! NCAR keeps files under 30 MB on MSS disk and sends larger files to
//! tape. The paper flags the cutoff as "a subject for future research;
//! however, it is likely that the switchover point will be a function of
//! tape seek speed and transfer rate." This module runs that study: given
//! the observed access-size distribution, a disk byte budget, and device
//! models, it sweeps the threshold and reports mean response time.

use serde::{Deserialize, Serialize};

/// First-byte overhead + streaming rate of one storage tier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    /// Seconds from request to first byte (queue-free).
    pub overhead_s: f64,
    /// Streaming rate in bytes/second.
    pub rate_bps: f64,
}

impl DeviceModel {
    /// Response time for one access of `size` bytes.
    pub fn access_s(&self, size: u64) -> f64 {
        self.overhead_s + size as f64 / self.rate_bps
    }
}

/// The two-tier placement study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DividingPointStudy {
    /// The fast tier (MSS staging disk).
    pub disk: DeviceModel,
    /// The slow tier (robot tape: mount + seek + stream).
    pub tape: DeviceModel,
    /// Disk capacity budget in bytes; a threshold whose resident set
    /// exceeds this is infeasible.
    pub disk_budget: u64,
}

impl DividingPointStudy {
    /// The paper's hardware: ~30 s effective disk response overhead is
    /// dominated by queueing, but queue-free models are what the §6
    /// argument uses — disk sub-second, silo tape ~60 s to first byte,
    /// both ~2.2 MB/s, 100 GB of staging disk.
    pub fn ncar() -> Self {
        DividingPointStudy {
            disk: DeviceModel {
                overhead_s: 0.5,
                rate_bps: 2.4e6,
            },
            tape: DeviceModel {
                overhead_s: 60.0,
                rate_bps: 2.2e6,
            },
            disk_budget: 100_000_000_000,
        }
    }
}

/// One row of the threshold sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DividingRow {
    /// Placement threshold in bytes: files strictly below live on disk.
    pub threshold: u64,
    /// Bytes the disk tier must hold (sum of distinct file sizes below
    /// the threshold).
    pub disk_resident_bytes: u64,
    /// Whether the resident set fits the budget.
    pub feasible: bool,
    /// Mean response time per access under this placement.
    pub mean_response_s: f64,
    /// Fraction of accesses served from disk.
    pub disk_access_share: f64,
}

impl DividingPointStudy {
    /// Sweeps thresholds over the workload.
    ///
    /// `static_sizes` holds each distinct file's size once (capacity
    /// accounting); `access_sizes` holds one entry per access (response
    /// accounting).
    pub fn sweep(
        &self,
        static_sizes: &[u64],
        access_sizes: &[u64],
        thresholds: &[u64],
    ) -> Vec<DividingRow> {
        thresholds
            .iter()
            .map(|&threshold| {
                let disk_resident_bytes: u64 = static_sizes
                    .iter()
                    .filter(|&&s| s < threshold)
                    .copied()
                    .sum();
                let feasible = disk_resident_bytes <= self.disk_budget;
                let mut total_s = 0.0;
                let mut disk_accesses = 0u64;
                for &size in access_sizes {
                    if size < threshold {
                        total_s += self.disk.access_s(size);
                        disk_accesses += 1;
                    } else {
                        total_s += self.tape.access_s(size);
                    }
                }
                let n = access_sizes.len().max(1) as f64;
                DividingRow {
                    threshold,
                    disk_resident_bytes,
                    feasible,
                    mean_response_s: total_s / n,
                    disk_access_share: disk_accesses as f64 / n,
                }
            })
            .collect()
    }

    /// The feasible row of a [`sweep`](Self::sweep) with the best
    /// response time: the largest feasible threshold, since response
    /// time is monotone in the threshold.
    pub fn best_feasible(rows: &[DividingRow]) -> Option<DividingRow> {
        rows.iter().copied().filter(|r| r.feasible).min_by(|a, b| {
            a.mean_response_s
                .partial_cmp(&b.mean_response_s)
                .expect("finite response times")
        })
    }

    /// The break-even file size at which tape matches disk response
    /// time when tape's only penalty is its overhead — §6's observation
    /// that for large files "transfer time dominates", making the added
    /// mount delay "not as noticeable".
    pub fn indifference_size(&self) -> f64 {
        // overhead_d + s/r_d = overhead_t + s/r_t  =>  solve for s.
        let num = self.tape.overhead_s - self.disk.overhead_s;
        let den = 1.0 / self.disk.rate_bps - 1.0 / self.tape.rate_bps;
        if den >= 0.0 {
            // Disk is slower per byte (never happens with real hardware):
            // tape never catches up.
            f64::INFINITY
        } else {
            num / -den
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study(budget: u64) -> DividingPointStudy {
        DividingPointStudy {
            disk_budget: budget,
            ..DividingPointStudy::ncar()
        }
    }

    #[test]
    fn response_time_improves_with_threshold_until_budget() {
        let s = study(u64::MAX);
        let static_sizes: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        let accesses = static_sizes.clone();
        let rows = s.sweep(
            &static_sizes,
            &accesses,
            &[0, 10_000_000, 50_000_000, 200_000_000],
        );
        for w in rows.windows(2) {
            assert!(
                w[1].mean_response_s <= w[0].mean_response_s + 1e-9,
                "response should fall as more goes to disk: {rows:?}"
            );
        }
        assert_eq!(rows[0].disk_access_share, 0.0);
        assert_eq!(rows[3].disk_access_share, 1.0);
    }

    #[test]
    fn budget_marks_infeasible_thresholds() {
        let s = study(10_000_000);
        let static_sizes = vec![4_000_000u64, 5_000_000, 9_000_000];
        let rows = s.sweep(&static_sizes, &static_sizes, &[6_000_000, 20_000_000]);
        assert!(rows[0].feasible, "9 MB resident fits 10 MB budget");
        assert!(!rows[1].feasible, "18 MB resident exceeds budget");
        let best = DividingPointStudy::best_feasible(&rows).unwrap();
        assert_eq!(best.threshold, 6_000_000);
    }

    #[test]
    fn indifference_size_matches_hand_solve() {
        let s = DividingPointStudy {
            disk: DeviceModel {
                overhead_s: 0.0,
                rate_bps: 3.0e6,
            },
            tape: DeviceModel {
                overhead_s: 60.0,
                rate_bps: 1.5e6,
            },
            disk_budget: 0,
        };
        // 60 = s/1.5e6 - s/3e6 = s/3e6  =>  s = 180 MB.
        assert!((s.indifference_size() - 180.0e6).abs() < 1.0);
    }

    #[test]
    fn equal_rates_mean_tape_never_catches_up() {
        let s = DividingPointStudy {
            disk: DeviceModel {
                overhead_s: 0.5,
                rate_bps: 2.0e6,
            },
            tape: DeviceModel {
                overhead_s: 60.0,
                rate_bps: 2.0e6,
            },
            disk_budget: 0,
        };
        assert!(s.indifference_size().is_infinite());
    }

    #[test]
    fn ncar_defaults_are_sane() {
        let s = DividingPointStudy::ncar();
        // With similar rates, the indifference size is enormous — which
        // is exactly why the budget, not response time, sets the cutoff.
        assert!(s.indifference_size() > 1e9);
        assert_eq!(s.disk_budget, 100_000_000_000);
    }

    #[test]
    fn empty_workload_is_zero() {
        let s = study(100);
        let rows = s.sweep(&[], &[], &[1000]);
        assert_eq!(rows[0].mean_response_s, 0.0);
        assert_eq!(rows[0].disk_access_share, 0.0);
        assert!(rows[0].feasible);
    }
}
