//! File-migration algorithms and the §6 design-implication experiments.
//!
//! The measurement half of the paper lives in `fmig-analysis`; this crate
//! holds the algorithmic half:
//!
//! * [`policy`] — STP (Smith's space-time product), LRU, FIFO,
//!   size-ordered, SAAC, random, and Belady's clairvoyant bound;
//! * [`cache`] — a watermark-driven disk-cache simulator measuring miss
//!   ratios and write-back stalls under any policy, and the one staging
//!   cache every host runs, the live daemon included (`tests/spec/mod.rs`
//!   states its semantics, the oracle every cache engine is held to);
//! * [`eval`] — the Smith/Lawrie comparison harness, parallel across
//!   policies;
//! * [`mrc`] — single-pass miss-ratio curves: a whole capacity grid from
//!   one trace walk, exact against per-capacity replay;
//! * [`feedback`] — the miss-latency feedback channel: an EWMA of
//!   measured recall waits per (tape tier, size class) that the
//!   closed-loop engine publishes to latency-aware policies;
//! * [`writeback`] — §6's lazy write-behind trace transformation;
//! * [`dividing`] — §6's disk/tape dividing-point study.
//!
//! # Examples
//!
//! ```
//! use fmig_migrate::cache::{CacheConfig, DiskCache};
//! use fmig_migrate::policy::Stp;
//!
//! let stp = Stp::classic();
//! let mut cache = DiskCache::new(CacheConfig::with_capacity(1 << 30), &stp);
//! assert!(!cache.read(1, 25 << 20, 0, None)); // cold miss
//! assert!(cache.read(1, 25 << 20, 60, None)); // hit
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod dividing;
pub mod eval;
pub mod feedback;
pub mod mrc;
pub mod policy;
mod rank;
pub mod writeback;

pub use cache::{
    CacheConfig, CacheOp, CacheStats, DiskCache, EvictionMode, RankingRegime, ReadResult,
};
pub use dividing::{DeviceModel, DividingPointStudy, DividingRow};
pub use eval::{
    EvalConfig, IdTracePrep, LatencyOutcome, PolicyOutcome, PreparedRef, PreparedTrace,
    ReplaySession, TracePrep,
};
pub use feedback::LatencyFeedback;
pub use mrc::{MissRatioCurve, MrcPoint};
pub use policy::{
    aggregate_delay, standard_suite, AffinePriority, Belady, Fifo, FileView, LargestFirst, Lru,
    LruMad, MigrationPolicy, RandomEvict, Saac, SharedKey, SmallestFirst, Stp, StpLat,
};
pub use writeback::{defer_writes, deferral_report, DeferralReport};
