//! Simulator configuration: the NCAR MSS hardware of §3.1 in numbers.
//!
//! Defaults reflect the paper's description and Table 1:
//!
//! * ~100 GB of IBM 3380 disk behind the 3090 bitfile server;
//! * a StorageTek 4400 ACS: 6000 × 200 MB cartridges, robot mounts in
//!   well under 10 seconds, average tape seek deduced to be ~50 s;
//! * operator-mounted shelf tape: ~115 s mount with a long tail (10% of
//!   manual requests exceeded 400 s to first byte, Figure 3);
//! * both disks and tape drives stream at a ~3 MB/s peak but ~2 MB/s
//!   observed (§5.1.1).

use fmig_trace::{DeviceClass, Request};
use serde::{Deserialize, Serialize};

/// All tunables of the MSS simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed for mount/seek/service noise.
    pub seed: u64,
    /// Independently queued disk spindles (IBM 3380 actuators).
    pub disk_spindles: usize,
    /// Tape drives in the StorageTek silo (shared by reads and the
    /// append-only write stream — writes queue behind reads, which is
    /// why Table 3 writes still wait tens of seconds despite skipping
    /// the mount).
    pub silo_drives: u32,
    /// Shelf tape drives (shared by reads and writes).
    pub manual_drives: u32,
    /// Robot arms in the StorageTek silo.
    pub robot_arms: u32,
    /// Human operators mounting shelved cartridges.
    pub operators: u32,
    /// Concurrent bitfile movers for the disk path — the effective
    /// transfer-concurrency limit of the 3090 channel path. §5.1.1
    /// observes that disk queueing "is probably representative of the
    /// time spent waiting for data to be transferred off tape": a narrow
    /// shared path builds the common queueing floor.
    pub movers: u32,
    /// Concurrent bitfile movers for tape transfers (the LDN-direct
    /// streams between tape drives and the Cray).
    pub tape_movers: u32,
    /// Median MSCP dispatch overhead (request parsing, catalog lookup,
    /// Cray-side queueing), seconds.
    pub mscp_overhead_median_s: f64,
    /// Lognormal sigma of the MSCP overhead.
    pub mscp_overhead_sigma: f64,
    /// Robot pick-and-mount time, seconds ("under 10 seconds").
    pub robot_mount_s: f64,
    /// Median operator mount time, seconds.
    pub operator_mount_median_s: f64,
    /// Lognormal sigma of operator mounts (the Figure 3 long tail).
    pub operator_mount_sigma: f64,
    /// Minimum tape seek after a fresh mount, seconds.
    pub tape_seek_min_s: f64,
    /// Maximum tape seek after a fresh mount, seconds (uniform in
    /// between; the paper deduces a ~50 s average).
    pub tape_seek_max_s: f64,
    /// Disk head positioning time, seconds.
    pub disk_seek_s: f64,
    /// Observed disk transfer rate, bytes/second.
    pub disk_rate: f64,
    /// Observed silo tape transfer rate, bytes/second.
    pub silo_rate: f64,
    /// Observed shelf tape transfer rate, bytes/second.
    pub manual_rate: f64,
    /// Relative transfer-rate jitter (±).
    pub rate_jitter: f64,
    /// Cartridge capacity in bytes (3480-style: 200 MB).
    pub cartridge_bytes: u64,
    /// Drive occupancy after a transfer while the cartridge unloads,
    /// seconds.
    pub tape_unload_s: f64,
    /// Median latency for requests that fail at the MSCP (§5.1 errors),
    /// seconds.
    pub error_latency_median_s: f64,
    /// Closed-loop hierarchy engine only: how long freshly written data
    /// may age before the write-behind flusher sends it to tape,
    /// seconds. Batching flushes off the critical path is exactly
    /// the §6 write-behind recommendation; the open-loop trace replay
    /// ignores this knob.
    pub writeback_delay_s: f64,
    /// Closed-loop hierarchy engine only: draw every timing noise value
    /// from the keyed, counter-free hashes in [`crate::noise`] instead
    /// of the shared RNG stream, and assign recall sequence numbers in
    /// *arrival* order instead of dispatch order. Off by default — the
    /// legacy stream stays bit-identical for existing fixtures. Turned
    /// on, a run's per-job physics become a pure function of
    /// `(seed, job identity, stage)`, which is what lets the live
    /// daemon/origin service (`fmig-serve`) reproduce the engine's
    /// delays exactly and be validated against it as an oracle.
    pub counter_noise: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x4D53_5321, // "MSS!"
            disk_spindles: 12,
            silo_drives: 5,
            manual_drives: 6,
            robot_arms: 2,
            operators: 3,
            movers: 2,
            tape_movers: 3,
            mscp_overhead_median_s: 2.0,
            mscp_overhead_sigma: 1.2,
            robot_mount_s: 7.0,
            operator_mount_median_s: 95.0,
            operator_mount_sigma: 0.7,
            tape_seek_min_s: 10.0,
            tape_seek_max_s: 90.0,
            disk_seek_s: 0.04,
            disk_rate: 2.4e6,
            silo_rate: 2.2e6,
            manual_rate: 2.0e6,
            rate_jitter: 0.10,
            cartridge_bytes: 200_000_000,
            tape_unload_s: 5.0,
            error_latency_median_s: 2.0,
            writeback_delay_s: 30.0,
            counter_noise: false,
        }
    }
}

impl SimConfig {
    /// The same hardware with a different RNG seed for mount/seek/service
    /// noise.
    ///
    /// [`crate::MssSimulator::run_streaming`] takes `&self` and re-seeds its engine
    /// from `self.seed` on every call, so two runs of one simulator are
    /// identical by design. Anything executing *multiple* configurations
    /// — a sweep cell per scenario, for instance — must thread a distinct
    /// seed through each cell's `SimConfig` or every cell silently shares
    /// one RNG stream.
    pub fn with_seed(self, seed: u64) -> Self {
        SimConfig { seed, ..self }
    }

    /// The observed streaming rate of `device`, bytes/second.
    pub fn rate_of(&self, device: DeviceClass) -> f64 {
        match device {
            DeviceClass::Disk => self.disk_rate,
            DeviceClass::TapeSilo => self.silo_rate,
            DeviceClass::TapeManual => self.manual_rate,
        }
    }

    /// The transfer time the open-loop simulator annotates `rec` with:
    /// its size at [`Self::rate_of`] its device, in whole milliseconds,
    /// and 0 for an errored request, which moves no data.
    pub fn transfer_ms(&self, rec: &impl Request) -> u64 {
        if rec.error().is_some() {
            return 0;
        }
        let rate = self.rate_of(rec.mss_device().unwrap_or(DeviceClass::Disk));
        (rec.file_size() as f64 / rate * 1000.0) as u64
    }

    /// The same hardware with [`Self::counter_noise`] switched: keyed
    /// replayable timing draws on `true`, the legacy shared RNG stream
    /// on `false`.
    pub fn with_counter_noise(self, counter_noise: bool) -> Self {
        SimConfig {
            counter_noise,
            ..self
        }
    }

    /// Hardware scaled down with a workload's `scale` so per-resource
    /// utilisation — and therefore queueing shape — stays comparable to
    /// the full-size system when replaying a scaled trace.
    pub fn scaled(scale: f64) -> Self {
        let base = Self::default();
        let f = scale.clamp(0.0, 1.0);
        let n = |x: u32| ((x as f64 * f).round() as u32).max(1);
        SimConfig {
            disk_spindles: ((base.disk_spindles as f64 * f).round() as usize).max(2),
            silo_drives: n(base.silo_drives).max(2),
            manual_drives: n(base.manual_drives).max(2),
            robot_arms: n(base.robot_arms),
            operators: n(base.operators),
            movers: n(base.movers).max(2),
            tape_movers: n(base.tape_movers).max(2),
            ..base
        }
    }

    /// A configuration with generous hardware, useful for isolating
    /// device physics from queueing in tests and ablations.
    pub fn uncontended() -> Self {
        SimConfig {
            disk_spindles: 64,
            silo_drives: 16,
            manual_drives: 16,
            robot_arms: 8,
            operators: 8,
            movers: 64,
            tape_movers: 64,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_hardware() {
        let c = SimConfig::default();
        assert_eq!(c.cartridge_bytes, 200_000_000);
        assert!(c.robot_mount_s < 10.0);
        // Deduced averages: silo mount+overhead ~35s with ~50s seek mean.
        let seek_mean = (c.tape_seek_min_s + c.tape_seek_max_s) / 2.0;
        assert!((seek_mean - 50.0).abs() < 1e-9);
        // Observed rates near 2 MB/s, below the 3 MB/s peak.
        assert!(c.disk_rate <= 3.0e6 && c.disk_rate >= 2.0e6);
        assert!(c.manual_rate <= c.silo_rate && c.silo_rate <= c.disk_rate);
    }

    #[test]
    fn scaled_shrinks_but_never_to_zero() {
        let s = SimConfig::scaled(0.05);
        assert!(s.disk_spindles >= 2);
        assert!(s.silo_drives >= 2);
        assert_eq!(s.operators, 1);
        assert!(s.movers >= 2);
        // Scale 1.0 is the full system.
        assert_eq!(SimConfig::scaled(1.0), SimConfig::default());
        // Physics is never scaled.
        assert_eq!(s.robot_mount_s, SimConfig::default().robot_mount_s);
    }

    #[test]
    fn uncontended_has_more_of_everything() {
        let base = SimConfig::default();
        let big = SimConfig::uncontended();
        assert!(big.disk_spindles > base.disk_spindles);
        assert!(big.movers > base.movers);
        assert!(big.operators > base.operators);
        // Device physics unchanged.
        assert_eq!(big.robot_mount_s, base.robot_mount_s);
        assert_eq!(big.silo_rate, base.silo_rate);
    }
}
