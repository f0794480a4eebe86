//! Stage noise: the [`Noise`] sampler every engine draws through, and
//! the keyed, counter-free draws behind its replayable mode.
//!
//! The closed-loop engine's legacy timing noise comes from one shared
//! `SmallRng` ([`Noise::Sequential`]): every draw advances the stream,
//! so a stage's delay depends on *how many draws happened before it* —
//! global history no distributed replica can reproduce without
//! replaying every other job. [`SimConfig::counter_noise`] switches the
//! engine to [`Noise::Keyed`] instead: each draw is a pure function of
//! the run seed
//! and a **stage-addressed key** derived from the job's identity (the
//! reference index, the recall's issue-order sequence number and
//! attempt, or the flush's spawn-order sequence number) plus the stage
//! being timed. Two processes that agree on the seed and on job
//! identities reproduce each other's delays exactly — which is what
//! lets the live daemon/origin split (`fmig-serve`) replay the same
//! physics the in-process oracle predicts, job by job, with no RNG
//! stream to keep in lockstep.
//!
//! The same construction already times the fault layer
//! ([`crate::fault::FaultSchedule::read_fails`] keys media errors by
//! `(recall seq, attempt)`); this module extends it to every timing
//! draw the engine makes. All hashing is the workspace's one
//! splitmix64 mixer, [`crate::fault::seed_mix`].
//!
//! [`SimConfig::counter_noise`]: crate::config::SimConfig::counter_noise

use std::f64::consts::TAU;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::event::{SimMs, MS};
use crate::fault::seed_mix;

/// The one sampler every engine draws its stage noise through.
///
/// Each draw names its identity key lazily; only [`Noise::Keyed`]
/// evaluates it.
#[derive(Debug, Clone)]
pub enum Noise {
    /// The legacy stream: every draw advances one shared RNG, so a
    /// stage's delay depends on how many draws happened before it.
    Sequential(SmallRng),
    /// The replayable mode: every draw is a pure function of this seed
    /// and the draw's key.
    Keyed(u64),
}

impl Noise {
    /// A uniform draw in `[lo, hi)`.
    pub fn range(&mut self, key: impl FnOnce() -> u64, lo: f64, hi: f64) -> f64 {
        match self {
            Noise::Sequential(rng) => rng.gen_range(lo..hi),
            Noise::Keyed(seed) => range(*seed, key(), lo, hi),
        }
    }

    /// A lognormal delay in milliseconds: `median · e^(σ·z)`.
    pub fn lognormal_ms(&mut self, key: impl FnOnce() -> u64, median_s: f64, sigma: f64) -> SimMs {
        match self {
            Noise::Sequential(rng) => {
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos();
                ((median_s * (sigma * z).exp()) * MS as f64) as SimMs
            }
            Noise::Keyed(seed) => lognormal_ms(*seed, key(), median_s, sigma),
        }
    }

    /// A relative jitter delay in milliseconds: `base · (1 ± rel)`.
    pub fn jitter_ms(&mut self, key: impl FnOnce() -> u64, base_s: f64, rel: f64) -> SimMs {
        ((base_s * (1.0 + self.range(key, -rel, rel))) * MS as f64) as SimMs
    }
}

/// Stage being timed: the MSCP dispatch overhead drawn at arrival.
pub const STAGE_DISPATCH: u64 = 0x4449_5350; // "DISP"
/// Stage being timed: media mount (robot arm or operator).
pub const STAGE_MOUNT: u64 = 0x4D4F_554E; // "MOUN"
/// Stage being timed: tape positioning (read seek or append rewind).
pub const STAGE_SEEK: u64 = 0x5345_454B; // "SEEK"
/// Stage being timed: the transfer-rate jitter factor.
pub const STAGE_RATE: u64 = 0x5241_5445; // "RATE"

const TAG_REF: u64 = 0x5245_4658; // "REFX"
const TAG_DISK: u64 = 0x4453_4B4A; // "DSKJ"
const TAG_RECALL: u64 = 0x5243_4C4A; // "RCLJ"
const TAG_FLUSH: u64 = 0x464C_534A; // "FLSJ"

/// Key of a foreground reference's dispatch-overhead draw, addressed
/// by the reference's index in the trace.
pub fn dispatch_key(ref_index: u64) -> u64 {
    seed_mix(seed_mix(TAG_REF, ref_index), STAGE_DISPATCH)
}

/// Key of a disk job's draw at `stage`, addressed by the reference it
/// serves (disk jobs are one per foreground reference).
pub fn disk_key(ref_index: u64, stage: u64) -> u64 {
    seed_mix(seed_mix(TAG_DISK, ref_index), stage)
}

/// Key of a recall attempt's draw at `stage`, addressed by the
/// recall's issue-order sequence number and retry attempt — the same
/// identity the fault schedule's read-error decisions use.
pub fn recall_key(seq: u64, attempt: u32, stage: u64) -> u64 {
    seed_mix(seed_mix(seed_mix(TAG_RECALL, seq), attempt as u64), stage)
}

/// Key of a flush job's draw at `stage`, addressed by the flush's
/// spawn-order sequence number.
pub fn flush_key(seq: u64, stage: u64) -> u64 {
    seed_mix(seed_mix(TAG_FLUSH, seq), stage)
}

/// A uniform draw in `[0, 1)` from the top 53 bits of the mixed hash —
/// the same bit-to-unit mapping the fault schedule's error decisions
/// use.
pub fn uniform(seed: u64, key: u64) -> f64 {
    ((seed_mix(seed, key) >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// A uniform draw in `[lo, hi)`.
pub fn range(seed: u64, key: u64, lo: f64, hi: f64) -> f64 {
    lo + uniform(seed, key) * (hi - lo)
}

/// A standard normal via Box–Muller, mirroring [`Noise::Sequential`]'s
/// with the two uniforms taken from a chained pair of hashes instead of
/// consecutive stream draws.
pub fn normal(seed: u64, key: u64) -> f64 {
    let h = seed_mix(seed, key);
    let u1 = (((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64)).max(f64::MIN_POSITIVE);
    let u2 = ((seed_mix(h, 0x4E4F_524D) >> 11) as f64) * (1.0 / (1u64 << 53) as f64); // "NORM"
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

/// A keyed lognormal delay in milliseconds: `median · e^(σ·z)`,
/// truncated exactly as [`Noise::Sequential`]'s.
pub fn lognormal_ms(seed: u64, key: u64, median_s: f64, sigma: f64) -> SimMs {
    ((median_s * (sigma * normal(seed, key)).exp()) * MS as f64) as SimMs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_functions_of_seed_and_key() {
        let k = recall_key(7, 1, STAGE_MOUNT);
        assert_eq!(uniform(42, k), uniform(42, k));
        assert_eq!(normal(42, k), normal(42, k));
        assert_eq!(lognormal_ms(42, k, 2.0, 1.2), lognormal_ms(42, k, 2.0, 1.2));
        assert_ne!(uniform(42, k), uniform(43, k));
        assert_ne!(
            uniform(42, recall_key(7, 1, STAGE_MOUNT)),
            uniform(42, recall_key(7, 2, STAGE_MOUNT)),
        );
    }

    #[test]
    fn uniforms_land_in_unit_interval_and_ranges_in_bounds() {
        for i in 0..1000u64 {
            let u = uniform(0xDEAD_BEEF, seed_mix(1, i));
            assert!((0.0..1.0).contains(&u), "{u}");
            let r = range(0xDEAD_BEEF, seed_mix(2, i), 10.0, 90.0);
            assert!((10.0..90.0).contains(&r), "{r}");
        }
    }

    #[test]
    fn normal_has_roughly_standard_moments() {
        let n = 20_000u64;
        let (mut sum, mut sq) = (0.0, 0.0);
        for i in 0..n {
            let z = normal(0x5EED, seed_mix(3, i));
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
