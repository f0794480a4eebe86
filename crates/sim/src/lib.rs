//! Discrete-event simulator of the NCAR mass storage system (§3 of the
//! Miller & Katz study).
//!
//! The paper measures latency to first byte on a real MSS: IBM 3380 disk
//! behind an IBM 3090 bitfile server, a StorageTek 4400 cartridge silo,
//! and operator-mounted shelf tape. That hardware is unavailable, so this
//! crate rebuilds its *queueing structure*: FCFS spindles, tape drives,
//! robot arms, human operators, and a bounded pool of bitfile movers, all
//! driven by a trace.
//!
//! Each half of that structure is stated once — [`disk`] (MSCP
//! dispatch, spindles, channel movers, and the staging-disk logic of
//! the closed loop) and [`tape`] (drives, mounts, seeks, tape movers) —
//! and hosted by every engine: [`MssSimulator`] and
//! [`HierarchySimulator`] here, the live daemon and origin in
//! `fmig-serve`.
//!
//! Feeding the synthetic workload through [`MssSimulator`] regenerates
//! Figure 3 (per-device latency CDFs) and the Table 3 latency rows; the
//! §6-d write-behind study replays the deferred trace through it.
//!
//! # Examples
//!
//! ```
//! use fmig_sim::{MssSimulator, SimConfig};
//! use fmig_trace::{Endpoint, Timestamp, TraceRecord};
//!
//! let rec = TraceRecord::read(
//!     Endpoint::MssTapeSilo,
//!     Timestamp::from_unix(0),
//!     80_000_000,
//!     "/CCM/run1/day001",
//!     42,
//! );
//! let mut annotated = Vec::new();
//! let metrics = MssSimulator::new(SimConfig::default())
//!     .run_streaming([rec], |rec| annotated.push(rec));
//! // A silo read pays robot mount plus tape seek before the first byte.
//! assert!(annotated[0].startup_latency_s > 10);
//! assert_eq!(metrics.requests, 1);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod disk;
pub mod event;
pub mod fault;
pub mod hierarchy;
pub mod metrics;
pub mod noise;
pub mod pool;
pub mod sim;
pub mod tape;

pub use config::SimConfig;
pub use event::{EventQueue, SimMs};
pub use fault::{FaultPlan, FaultSchedule, FaultTarget, OutageClause, SlowDriveClause};
pub use hierarchy::{HierarchyMetrics, HierarchySimulator, RefOutcome, ServedBy};
pub use metrics::{LatencyHistogram, Metrics};
pub use pool::Pool;
pub use sim::MssSimulator;
